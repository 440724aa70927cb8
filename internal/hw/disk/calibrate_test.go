package disk

import (
	"testing"
	"time"

	"remotedb/internal/metrics"
	"remotedb/internal/sim"
)

// newKernel returns a kernel that is closed when the test ends, so the
// procs it parked end with it.
func newKernel(tb testing.TB, seed int64) *sim.Kernel {
	k := sim.New(seed)
	tb.Cleanup(k.Close)
	return k
}

func within(t *testing.T, name string, got, want, tol float64) {
	t.Helper()
	if got < want*(1-tol) || got > want*(1+tol) {
		t.Errorf("%s = %.3g, want %.3g ±%.0f%%", name, got, want, tol*100)
	}
}

// The paper's Figure 3/4 numbers for the HDD arrays.
func TestHDDRandomCalibration(t *testing.T) {
	// Note: the paper's HDD(20) pair (40 MB/s at 8 ms with 20 outstanding
	// 8 K reads) is not Little's-law consistent (20×8 KiB/8 ms ≈ 20 MB/s),
	// so no queueing model can match both; we allow a wider band there.
	cases := []struct {
		spindles int
		wantBPS  float64 // Figure 3, 8K random
		wantLat  float64 // Figure 4, seconds
		tol      float64
	}{
		{4, 0.007e9, 21000e-6, 0.35},
		{8, 0.015e9, 13000e-6, 0.35},
		{20, 0.040e9, 8000e-6, 0.45},
	}
	for _, c := range cases {
		k := newKernel(t, 1)
		a := NewHDDArray(k, "hdd", DefaultHDDArrayConfig(c.spindles))
		bps, lat := driveRandomOn(k, a, 20, 8192, 1<<37, 20*time.Second)
		within(t, "hdd random bps", bps, c.wantBPS, c.tol)
		within(t, "hdd random lat", lat.Seconds(), c.wantLat, c.tol+0.10)
	}
}

// driveRandomOn runs the SQLIO random-read pattern on the given kernel:
// threads concurrent readers issuing ioSize reads at uniformly random
// aligned offsets for dur of virtual time. It returns achieved bytes/sec
// and mean latency.
func driveRandomOn(k *sim.Kernel, dev Device, threads int, ioSize, span int64, dur time.Duration) (float64, time.Duration) {
	hist := metrics.NewHistogram()
	var bytes int64
	for i := 0; i < threads; i++ {
		k.Go("rnd", func(p *sim.Proc) {
			for p.Now() < dur {
				off := (p.Rand().Int63n(span / ioSize)) * ioSize
				start := p.Now()
				dev.Read(p, off, ioSize)
				hist.Observe(p.Now() - start)
				bytes += ioSize
			}
		})
	}
	k.Run(dur)
	return float64(bytes) / dur.Seconds(), hist.Mean()
}

func driveSequentialOn(k *sim.Kernel, dev Device, threads int, ioSize int64, dur time.Duration) (float64, time.Duration) {
	hist := metrics.NewHistogram()
	var bytes int64
	region := int64(1) << 36
	for i := 0; i < threads; i++ {
		base := int64(i) * region
		k.Go("seq", func(p *sim.Proc) {
			off := base
			for p.Now() < dur {
				start := p.Now()
				dev.Read(p, off, ioSize)
				hist.Observe(p.Now() - start)
				bytes += ioSize
				off += ioSize
			}
		})
	}
	k.Run(dur)
	return float64(bytes) / dur.Seconds(), hist.Mean()
}

func TestHDDSequentialCalibration(t *testing.T) {
	cases := []struct {
		spindles int
		wantBPS  float64 // Figure 3, 512K sequential
	}{
		{4, 0.36e9},
		{8, 0.76e9},
		{20, 1.76e9},
	}
	for _, c := range cases {
		k := newKernel(t, 1)
		a := NewHDDArray(k, "hdd", DefaultHDDArrayConfig(c.spindles))
		bps, _ := driveSequentialOn(k, a, 5, 512<<10, 10*time.Second)
		within(t, "hdd seq bps", bps, c.wantBPS, 0.35)
	}
}

func TestSSDCalibration(t *testing.T) {
	// Random: 0.24 GB/s @ 624 µs (20 threads, 8K).
	k := newKernel(t, 1)
	ssd := NewSSD(k, "ssd", DefaultSSDConfig())
	bps, lat := driveRandomOn(k, ssd, 20, 8192, 1<<36, 10*time.Second)
	within(t, "ssd random bps", bps, 0.24e9, 0.30)
	within(t, "ssd random lat", lat.Seconds(), 624e-6, 0.35)

	// Sequential: 0.39 GB/s @ 6288 µs (5 threads, 512K).
	k2 := newKernel(t, 1)
	ssd2 := NewSSD(k2, "ssd", DefaultSSDConfig())
	bps2, lat2 := driveSequentialOn(k2, ssd2, 5, 512<<10, 10*time.Second)
	within(t, "ssd seq bps", bps2, 0.39e9, 0.25)
	within(t, "ssd seq lat", lat2.Seconds(), 6288e-6, 0.35)
}

func TestRAIDSplitCoversRange(t *testing.T) {
	k := newKernel(t, 1)
	a := NewHDDArray(k, "hdd", DefaultHDDArrayConfig(4))
	chunks := a.split(100, 300000)
	var total int64
	for _, c := range chunks {
		total += c.size
		if c.size <= 0 || c.size > a.stripeUnit {
			t.Fatalf("bad chunk size %d", c.size)
		}
		if c.spindle < 0 || c.spindle >= 4 {
			t.Fatalf("bad spindle %d", c.spindle)
		}
	}
	if total != 300000 {
		t.Fatalf("split covers %d bytes, want 300000", total)
	}
}

func TestRAIDSingleChunkStaysInline(t *testing.T) {
	k := newKernel(t, 1)
	a := NewHDDArray(k, "hdd", DefaultHDDArrayConfig(4))
	if got := len(a.split(0, 4096)); got != 1 {
		t.Fatalf("small IO split into %d chunks, want 1", got)
	}
}

func TestSpindleSequentialDetection(t *testing.T) {
	k := newKernel(t, 1)
	s := NewSpindle(k, "sp", DefaultSpindleConfig())
	k.Go("p", func(p *sim.Proc) {
		s.Read(p, 0, 8192)     // miss
		s.Read(p, 8192, 8192)  // hit
		s.Read(p, 16384, 8192) // hit
		s.Read(p, 1<<30, 8192) // miss
	})
	k.Run(0)
	if s.SeqHits != 2 || s.SeqMisses != 2 {
		t.Fatalf("hits/misses = %d/%d, want 2/2", s.SeqHits, s.SeqMisses)
	}
}

func TestNullDeviceChargesNothing(t *testing.T) {
	k := newKernel(t, 1)
	var end time.Duration
	k.Go("p", func(p *sim.Proc) {
		NullDevice{DeviceName: "ram"}.Read(p, 0, 1<<30)
		end = p.Now()
	})
	k.Run(0)
	if end != 0 {
		t.Fatalf("null device advanced clock to %v", end)
	}
}

func TestArrayStats(t *testing.T) {
	k := newKernel(t, 1)
	a := NewHDDArray(k, "hdd", DefaultHDDArrayConfig(4))
	k.Go("p", func(p *sim.Proc) {
		a.Read(p, 0, 8192)
		a.Write(p, 0, 8192)
	})
	k.Run(0)
	r, w, br, bw := a.Stats()
	if r != 1 || w != 1 || br != 8192 || bw != 8192 {
		t.Fatalf("stats = %d %d %d %d", r, w, br, bw)
	}
}
