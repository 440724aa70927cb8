package rmem

import (
	"bytes"
	"testing"
	"time"

	"remotedb/internal/cluster"
	"remotedb/internal/hw/nic"
	"remotedb/internal/metrics"
	"remotedb/internal/sim"
)

func testServer(k *sim.Kernel, name string) *cluster.Server {
	cfg := cluster.DefaultConfig()
	cfg.MemoryBytes = 256 << 20
	return cluster.NewServer(k, name, cfg)
}

func TestPoolLifecycle(t *testing.T) {
	k := newKernel(t, 1)
	m := testServer(k, "m1")
	k.Go("setup", func(p *sim.Proc) {
		pool, err := NewPool(p, m, 1<<20, 8)
		if err != nil {
			t.Error(err)
			return
		}
		if pool.FreeCount() != 8 || pool.TotalCount() != 8 {
			t.Errorf("counts = %d/%d", pool.FreeCount(), pool.TotalCount())
		}
		if m.MemoryBrokered() != 8<<20 {
			t.Errorf("brokered = %d", m.MemoryBrokered())
		}
		mr, err := pool.Acquire()
		if err != nil {
			t.Error(err)
			return
		}
		if !mr.Leased() || pool.FreeCount() != 7 {
			t.Error("acquire did not lease")
		}
		pool.ReleaseMR(mr)
		if mr.Leased() || pool.FreeCount() != 8 {
			t.Error("release did not unlease")
		}
	})
	k.Run(0)
}

func TestPoolExhaustion(t *testing.T) {
	k := newKernel(t, 1)
	m := testServer(k, "m1")
	k.Go("setup", func(p *sim.Proc) {
		pool, _ := NewPool(p, m, 1<<20, 1)
		if _, err := pool.Acquire(); err != nil {
			t.Error(err)
		}
		if _, err := pool.Acquire(); err == nil {
			t.Error("second acquire should fail")
		}
	})
	k.Run(0)
}

func TestPoolShrinkUnderPressure(t *testing.T) {
	k := newKernel(t, 1)
	m := testServer(k, "m1")
	k.Go("setup", func(p *sim.Proc) {
		pool, _ := NewPool(p, m, 1<<20, 4)
		released := pool.Shrink(2 << 20)
		if released != 2<<20 {
			t.Errorf("released = %d", released)
		}
		if pool.TotalCount() != 2 || m.MemoryBrokered() != 2<<20 {
			t.Errorf("after shrink: total=%d brokered=%d", pool.TotalCount(), m.MemoryBrokered())
		}
	})
	k.Run(0)
}

func TestRevokedMRRejectsAccess(t *testing.T) {
	k := newKernel(t, 1)
	m := testServer(k, "m1")
	db := testServer(k, "db1")
	k.Go("setup", func(p *sim.Proc) {
		pool, _ := NewPool(p, m, 1<<20, 1)
		mr, _ := pool.Acquire()
		c := NewClient(p, db, DefaultClientConfig())
		tr := NewTransport(nic.ProtoRDMA)
		pool.RevokeAll()
		buf := make([]byte, 8192)
		if err := tr.Read(p, c, mr, 0, buf); err != ErrRevoked {
			t.Errorf("read on revoked MR: err = %v, want ErrRevoked", err)
		}
	})
	k.Run(0)
}

func TestTransportMovesRealBytes(t *testing.T) {
	for _, proto := range []nic.Protocol{nic.ProtoRDMA, nic.ProtoSMBDirect, nic.ProtoSMB} {
		k := newKernel(t, 1)
		m := testServer(k, "m1")
		db := testServer(k, "db1")
		k.Go("xfer", func(p *sim.Proc) {
			pool, _ := NewPool(p, m, 1<<20, 1)
			mr, _ := pool.Acquire()
			c := NewClient(p, db, DefaultClientConfig())
			tr := NewTransport(proto)
			src := bytes.Repeat([]byte{0xAB}, 8192)
			if err := tr.Write(p, c, mr, 4096, src); err != nil {
				t.Error(err)
				return
			}
			dst := make([]byte, 8192)
			if err := tr.Read(p, c, mr, 4096, dst); err != nil {
				t.Error(err)
				return
			}
			if !bytes.Equal(src, dst) {
				t.Errorf("%v: bytes corrupted in transfer", proto)
			}
		})
		k.Run(0)
	}
}

func TestOutOfRangeAccess(t *testing.T) {
	k := newKernel(t, 1)
	m := testServer(k, "m1")
	db := testServer(k, "db1")
	k.Go("x", func(p *sim.Proc) {
		pool, _ := NewPool(p, m, 4096, 1)
		mr, _ := pool.Acquire()
		c := NewClient(p, db, DefaultClientConfig())
		tr := NewTransport(nic.ProtoRDMA)
		if err := tr.Read(p, c, mr, 0, make([]byte, 8192)); err == nil {
			t.Error("read past MR end should fail")
		}
		if err := tr.Write(p, c, mr, -1, make([]byte, 10)); err == nil {
			t.Error("negative offset should fail")
		}
	})
	k.Run(0)
}

// drive runs the SQLIO pattern against remote memory over a protocol.
func drive(t *testing.T, proto nic.Protocol, threads, ioSize int, dur time.Duration) (bps float64, lat time.Duration) {
	t.Helper()
	k := newKernel(t, 1)
	m := testServer(k, "m1")
	db := testServer(k, "db1")
	hist := metrics.NewHistogram()
	var bytesMoved int64
	k.Go("main", func(p *sim.Proc) {
		mrSize := 16 << 20
		pool, err := NewPool(p, m, mrSize, 8)
		if err != nil {
			t.Error(err)
			return
		}
		var mrs []*MR
		for i := 0; i < 8; i++ {
			mr, _ := pool.Acquire()
			mrs = append(mrs, mr)
		}
		cfg := DefaultClientConfig()
		if proto != nic.ProtoRDMA {
			cfg.Mode = AccessAsync
		}
		c := NewClient(p, db, cfg)
		tr := NewTransport(proto)
		start := p.Now()
		end := start + dur
		for i := 0; i < threads; i++ {
			k.Go("io", func(w *sim.Proc) {
				buf := make([]byte, ioSize)
				for w.Now() < end {
					mr := mrs[w.Rand().Intn(len(mrs))]
					off := w.Rand().Intn(mrSize-ioSize+1) / ioSize * ioSize
					t0 := w.Now()
					if err := tr.Read(w, c, mr, off, buf); err != nil {
						t.Error(err)
						return
					}
					hist.Observe(w.Now() - t0)
					bytesMoved += int64(ioSize)
				}
			})
		}
	})
	k.Run(dur + 100*time.Millisecond)
	return float64(bytesMoved) / dur.Seconds(), hist.Mean()
}

func within(t *testing.T, name string, got, want, tol float64) {
	t.Helper()
	if got < want*(1-tol) || got > want*(1+tol) {
		t.Errorf("%s = %.4g, want %.4g ±%.0f%%", name, got, want, tol*100)
	}
}

// Calibration against Figures 3 and 4 (remote-memory columns).
func TestCustomCalibration(t *testing.T) {
	bps, lat := drive(t, nic.ProtoRDMA, 20, 8192, 500*time.Millisecond)
	within(t, "custom random bps", bps, 4.27e9, 0.25)
	within(t, "custom random lat", lat.Seconds(), 36e-6, 0.35)

	bps, lat = drive(t, nic.ProtoRDMA, 5, 512<<10, 500*time.Millisecond)
	within(t, "custom seq bps", bps, 5.1e9, 0.20)
	within(t, "custom seq lat", lat.Seconds(), 487e-6, 0.25)
}

func TestSMBDirectCalibration(t *testing.T) {
	bps, lat := drive(t, nic.ProtoSMBDirect, 20, 8192, 500*time.Millisecond)
	within(t, "smbdirect random bps", bps, 1.36e9, 0.25)
	within(t, "smbdirect random lat", lat.Seconds(), 109e-6, 0.35)

	bps, lat = drive(t, nic.ProtoSMBDirect, 5, 512<<10, 500*time.Millisecond)
	within(t, "smbdirect seq bps", bps, 5.09e9, 0.20)
	within(t, "smbdirect seq lat", lat.Seconds(), 488e-6, 0.25)
}

func TestSMBCalibration(t *testing.T) {
	bps, lat := drive(t, nic.ProtoSMB, 20, 8192, 500*time.Millisecond)
	within(t, "smb random bps", bps, 0.64e9, 0.30)
	within(t, "smb random lat", lat.Seconds(), 236e-6, 0.35)

	bps, lat = drive(t, nic.ProtoSMB, 5, 512<<10, 500*time.Millisecond)
	within(t, "smb seq bps", bps, 3.36e9, 0.25)
	within(t, "smb seq lat", lat.Seconds(), 723e-6, 0.30)
}

// Protocol ordering must match the paper even if absolute numbers drift.
func TestProtocolOrdering(t *testing.T) {
	custom, _ := drive(t, nic.ProtoRDMA, 20, 8192, 200*time.Millisecond)
	smbd, _ := drive(t, nic.ProtoSMBDirect, 20, 8192, 200*time.Millisecond)
	smb, _ := drive(t, nic.ProtoSMB, 20, 8192, 200*time.Millisecond)
	if !(custom > smbd && smbd > smb) {
		t.Fatalf("random throughput ordering violated: custom=%.3g smbdirect=%.3g smb=%.3g", custom, smbd, smb)
	}
}

// The rejected design choices must cost what the paper says they cost.
func TestOnDemandRegistrationOverhead(t *testing.T) {
	k := newKernel(t, 1)
	m := testServer(k, "m1")
	db := testServer(k, "db1")
	var stagingLat, onDemandLat time.Duration
	k.Go("x", func(p *sim.Proc) {
		pool, _ := NewPool(p, m, 1<<20, 1)
		mr, _ := pool.Acquire()
		tr := NewTransport(nic.ProtoRDMA)
		buf := make([]byte, 8192)

		cfg := DefaultClientConfig()
		c1 := NewClient(p, db, cfg)
		t0 := p.Now()
		tr.Read(p, c1, mr, 0, buf)
		stagingLat = p.Now() - t0

		cfg.Reg = RegOnDemand
		c2 := NewClient(p, db, cfg)
		t0 = p.Now()
		tr.Read(p, c2, mr, 0, buf)
		onDemandLat = p.Now() - t0
	})
	k.Run(0)
	// Paper: registration ~50µs vs memcpy ~2µs; the delta dominates.
	delta := onDemandLat - stagingLat
	if delta < 40*time.Microsecond || delta > 60*time.Microsecond {
		t.Fatalf("on-demand penalty = %v, want ~48µs", delta)
	}
}

func TestSyncAvoidsContextSwitch(t *testing.T) {
	// Sync access on an idle machine should beat async by about the
	// context-switch cost.
	k := newKernel(t, 1)
	m := testServer(k, "m1")
	db := testServer(k, "db1")
	var syncLat, asyncLat time.Duration
	k.Go("x", func(p *sim.Proc) {
		pool, _ := NewPool(p, m, 1<<20, 1)
		mr, _ := pool.Acquire()
		tr := NewTransport(nic.ProtoRDMA)
		buf := make([]byte, 8192)

		cfg := DefaultClientConfig()
		c1 := NewClient(p, db, cfg)
		t0 := p.Now()
		tr.Read(p, c1, mr, 0, buf)
		syncLat = p.Now() - t0

		cfg.Mode = AccessAsync
		c2 := NewClient(p, db, cfg)
		t0 = p.Now()
		tr.Read(p, c2, mr, 0, buf)
		asyncLat = p.Now() - t0
	})
	k.Run(0)
	if asyncLat <= syncLat {
		t.Fatalf("async (%v) should be slower than sync (%v)", asyncLat, syncLat)
	}
}

func TestAdaptiveModeSwitches(t *testing.T) {
	// Adaptive completion must behave like sync for an 8K transfer
	// (estimate under the spin threshold) and like async for a large one.
	k := newKernel(t, 1)
	m := testServer(k, "m1")
	db := testServer(k, "db1")
	k.Go("t", func(p *sim.Proc) {
		pool, _ := NewPool(p, m, 4<<20, 2)
		mr, _ := pool.Acquire()
		tr := NewTransport(nic.ProtoRDMA)

		lat := func(mode AccessMode, size int) time.Duration {
			cfg := DefaultClientConfig()
			cfg.Mode = mode
			c := NewClient(p, db, cfg)
			buf := make([]byte, size)
			t0 := p.Now()
			if err := tr.Read(p, c, mr, 0, buf); err != nil {
				t.Error(err)
			}
			return p.Now() - t0
		}
		// Small transfer: adaptive == sync, both beat async.
		if a, s := lat(AccessAdaptive, 8192), lat(AccessSync, 8192); a != s {
			t.Errorf("adaptive small (%v) should equal sync (%v)", a, s)
		}
		// Large transfer: adaptive == async (pays the context switch).
		big := 2 << 20
		if a, as := lat(AccessAdaptive, big), lat(AccessAsync, big); a != as {
			t.Errorf("adaptive large (%v) should equal async (%v)", a, as)
		}
	})
	k.Run(time.Minute)
}
