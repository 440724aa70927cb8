package workload

import (
	"testing"
	"time"

	"remotedb/internal/cluster"
	"remotedb/internal/engine"
	"remotedb/internal/engine/buffer"
	"remotedb/internal/hw/disk"
	"remotedb/internal/sim"
	"remotedb/internal/vfs"
)

// fastEngine builds an engine on a null device for workload unit tests.
func fastEngine(p *sim.Proc, k *sim.Kernel) *engine.Engine {
	cfg := cluster.DefaultConfig()
	cfg.MemoryBytes = 1 << 30
	s := cluster.NewServer(k, "db", cfg)
	ecfg := engine.DefaultConfig(32768)
	ecfg.Buffer = buffer.DefaultConfig(32768)
	ecfg.Buffer.WriterPeriod = 0
	eng, err := engine.New(p, s, engine.Files{
		Data: vfs.NewDeviceFile("data", disk.NullDevice{DeviceName: "null"}),
		Log:  vfs.NewMemFile("log"),
		Temp: vfs.NewMemFile("temp"),
	}, ecfg)
	if err != nil {
		panic(err)
	}
	return eng
}

func TestDriveCountsAndWindows(t *testing.T) {
	k := newKernel(t, 1)
	k.Go("t", func(p *sim.Proc) {
		calls := 0
		res := Drive(p, 4, 100*time.Millisecond, 200*time.Millisecond, func(wp *sim.Proc, _ int) error {
			calls++
			wp.Sleep(10 * time.Millisecond)
			return nil
		})
		// 4 clients x 300ms / 10ms = ~120 calls; ~80 in the window.
		if calls < 100 || calls > 130 {
			t.Errorf("calls = %d", calls)
		}
		if res.Queries < 70 || res.Queries > 90 {
			t.Errorf("measured queries = %d, want ~80", res.Queries)
		}
		if res.Latency.Mean() < 9*time.Millisecond || res.Latency.Mean() > 11*time.Millisecond {
			t.Errorf("mean latency = %v", res.Latency.Mean())
		}
	})
	k.Run(time.Minute)
}

func TestDriveCountsErrors(t *testing.T) {
	k := newKernel(t, 1)
	k.Go("t", func(p *sim.Proc) {
		i := 0
		res := Drive(p, 1, 0, 100*time.Millisecond, func(wp *sim.Proc, _ int) error {
			wp.Sleep(10 * time.Millisecond)
			i++
			if i%2 == 0 {
				return vfs.ErrUnavailable
			}
			return nil
		})
		if res.Errors == 0 || res.Queries == 0 {
			t.Errorf("queries=%d errors=%d; both should be nonzero", res.Queries, res.Errors)
		}
	})
	k.Run(time.Minute)
}

func TestHotspotDistribution(t *testing.T) {
	k := newKernel(t, 1)
	k.Go("t", func(p *sim.Proc) {
		h := Hotspot{HotFrac: 0.20, HotAccess: 0.99}
		const n = 100000
		hot := 0
		for i := 0; i < 20000; i++ {
			if h.Pick(p, n) < int64(0.2*n) {
				hot++
			}
		}
		frac := float64(hot) / 20000
		if frac < 0.97 || frac > 1.0 {
			t.Errorf("hot fraction = %.3f, want ~0.99", frac)
		}
	})
	k.Run(time.Minute)
}

func TestRangeScanQueryTouchesExpectedRows(t *testing.T) {
	k := newKernel(t, 1)
	k.Go("t", func(p *sim.Proc) {
		eng := fastEngine(p, k)
		cfg := DefaultRangeScan()
		cfg.Rows = 20000
		cfg.Clients = 4
		w, err := NewRangeScan(p, eng, cfg)
		if err != nil {
			t.Error(err)
			return
		}
		// Row count sanity.
		if w.Tbl.Clustered.Entries != 20000 {
			t.Errorf("rows = %d", w.Tbl.Clustered.Entries)
		}
		// A single query reads exactly Range rows; check via a known key.
		if err := w.QueryOnce(p, 500, false); err != nil {
			t.Error(err)
		}
		// Update variant persists its changes.
		if err := w.QueryOnce(p, 500, true); err != nil {
			t.Error(err)
		}
		got, err := w.Tbl.Get(p, int64(500))
		if err != nil {
			t.Error(err)
			return
		}
		want := float64(500%10000)/100 + 1
		if got[w.acctbalOrd].(float64) != want {
			t.Errorf("acctbal after update = %v, want %v", got[w.acctbalOrd], want)
		}
		eng.Shutdown()
	})
	k.Run(10 * time.Minute)
}

func TestRangeScanRowWidth(t *testing.T) {
	// Table 4 says ~245 bytes/row; the generator should be close.
	k := newKernel(t, 1)
	k.Go("t", func(p *sim.Proc) {
		eng := fastEngine(p, k)
		w, err := NewRangeScan(p, eng, RangeScanConfig{Rows: 1000, Range: 10, Clients: 1, QueryCPU: time.Microsecond})
		if err != nil {
			t.Error(err)
			return
		}
		pairs, _ := w.Tbl.Clustered.ScanRange(p, nil, nil, 1)
		width := len(pairs[0].Val)
		if width < 200 || width > 290 {
			t.Errorf("row width = %dB, want ~245B", width)
		}
		eng.Shutdown()
	})
	k.Run(time.Minute)
}

func TestHashSortLoadCardinality(t *testing.T) {
	k := newKernel(t, 1)
	k.Go("t", func(p *sim.Proc) {
		eng := fastEngine(p, k)
		cfg := HashSortConfig{Orders: 5000, Lineitem: 20000, TopN: 100}
		w, err := NewHashSort(p, eng, cfg)
		if err != nil {
			t.Error(err)
			return
		}
		if w.Orders.Clustered.Entries != 5000 || w.Lineitem.Clustered.Entries != 20000 {
			t.Errorf("cardinalities = %d/%d", w.Orders.Clustered.Entries, w.Lineitem.Clustered.Entries)
		}
		lat, ctx, err := w.Run(p)
		if err != nil {
			t.Error(err)
			return
		}
		if lat <= 0 {
			t.Error("no latency recorded")
		}
		if ctx.RowsOut != 100 {
			t.Errorf("topN produced %d rows, want 100", ctx.RowsOut)
		}
		eng.Shutdown()
	})
	k.Run(10 * time.Minute)
}

func TestSQLIOPatterns(t *testing.T) {
	k := newKernel(t, 1)
	cfg := cluster.DefaultConfig()
	s := cluster.NewServer(k, "io", cfg)
	k.Go("t", func(p *sim.Proc) {
		f := vfs.NewDeviceFile("d", s.SSD)
		rnd := RandomRead8K(64 << 20)
		rnd.Duration = 200 * time.Millisecond
		r := RunSQLIO(p, f, rnd)
		if r.IOs == 0 || r.BytesPerSec <= 0 {
			t.Error("random pattern produced no I/O")
		}
		seq := SequentialRead512K(64 << 20)
		seq.Duration = 200 * time.Millisecond
		sres := RunSQLIO(p, f, seq)
		if sres.BytesPerSec <= r.BytesPerSec {
			t.Errorf("SSD sequential (%.0f) should beat random (%.0f) in bytes/sec", sres.BytesPerSec, r.BytesPerSec)
		}
	})
	k.Run(time.Minute)
}

func TestSamplerCollectsSeries(t *testing.T) {
	k := newKernel(t, 1)
	k.Go("t", func(p *sim.Proc) {
		n := 0.0
		s := NewSampler(k, "test", 10*time.Millisecond, func(at time.Duration) float64 {
			n++
			return n
		})
		p.Sleep(105 * time.Millisecond)
		s.Stop()
		p.Sleep(20 * time.Millisecond)
		if got := len(s.Series.Points); got < 9 || got > 12 {
			t.Errorf("samples = %d, want ~10", got)
		}
	})
	k.Run(time.Second)
}
