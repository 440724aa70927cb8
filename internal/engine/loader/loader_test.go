package loader

import (
	"fmt"
	"testing"
	"time"

	"remotedb/internal/cluster"
	"remotedb/internal/sim"
)

func mkServers(k *sim.Kernel, n int) []*cluster.Server {
	cfg := cluster.DefaultConfig()
	cfg.MemoryBytes = 1 << 30
	var out []*cluster.Server
	for i := 0; i < n; i++ {
		out = append(out, cluster.NewServer(k, fmt.Sprintf("s%d", i+1), cfg))
	}
	return out
}

func mkSplits(n int, each int64) []Split {
	var out []Split
	for i := 0; i < n; i++ {
		out = append(out, Split{Name: fmt.Sprintf("split-%d", i), Bytes: each})
	}
	return out
}

// run loads 80 splits of 2 MB (the paper's shape scaled 1000x down) on n
// servers and returns the wall clock.
func run(t *testing.T, n int) Stats {
	t.Helper()
	k := newKernel(t, 1)
	servers := mkServers(k, n)
	var st Stats
	k.Go("t", func(p *sim.Proc) {
		st = LoadParallel(p, servers, mkSplits(80, 2<<20), DefaultCostModel())
	})
	k.Run(time.Hour)
	return st
}

func TestNearLinearSpeedup(t *testing.T) {
	one := run(t, 1)
	eight := run(t, 8)
	if one.CopyTime != 0 {
		t.Errorf("single-server load has copy time %v", one.CopyTime)
	}
	speedup := one.WallClock.Seconds() / eight.WallClock.Seconds()
	// The paper reports ~7.7x on 8 servers.
	if speedup < 6.5 || speedup > 8.2 {
		t.Fatalf("8-server speedup = %.2fx, want ~7.7x", speedup)
	}
	if eight.CopyTime <= 0 {
		t.Error("8-server load should have a copy phase")
	}
	if eight.CopyTime > eight.LoadTime/5 {
		t.Errorf("copy time %v should be small vs load %v", eight.CopyTime, eight.LoadTime)
	}
}

func TestMonotoneScaling(t *testing.T) {
	prev := time.Duration(1<<62 - 1)
	for _, n := range []int{1, 2, 4, 8} {
		st := run(t, n)
		if st.WallClock >= prev {
			t.Fatalf("wall clock did not improve at %d servers: %v >= %v", n, st.WallClock, prev)
		}
		prev = st.WallClock
	}
}

func TestLoadRateCalibration(t *testing.T) {
	// One server: 160 MB of raw input should take roughly 6.9 "seconds"
	// (the paper's 160 GB in 6919 s, scaled 1000x).
	st := run(t, 1)
	secs := st.WallClock.Seconds()
	if secs < 4.8 || secs > 9.7 {
		t.Fatalf("single-server load = %.1fs, want ~6.9s", secs)
	}
}
