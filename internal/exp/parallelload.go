package exp

import (
	"fmt"
	"time"

	"remotedb/internal/cluster"
	"remotedb/internal/engine/loader"
	"remotedb/internal/sim"
)

// Fig27Point is one x-position of Figure 27.
type Fig27Point struct {
	Servers int
	loader.Stats
}

// RunFig27ParallelLoad reproduces Figure 27: 80 splits of 2 MB loaded in
// parallel by 1..8 servers.
func RunFig27ParallelLoad(seed int64) ([]Fig27Point, error) {
	var out []Fig27Point
	for _, n := range []int{1, 2, 4, 8} {
		pt := Fig27Point{Servers: n}
		err := RunInSim(seed, time.Hour, func(p *sim.Proc) error {
			cfg := cluster.DefaultConfig()
			cfg.MemoryBytes = 1 << 30
			var servers []*cluster.Server
			for i := 0; i < n; i++ {
				servers = append(servers, cluster.NewServer(p.Kernel(), fmt.Sprintf("s%d", i+1), cfg))
			}
			var splits []loader.Split
			for i := 0; i < 80; i++ {
				splits = append(splits, loader.Split{Name: fmt.Sprintf("split-%d", i), Bytes: 2 << 20})
			}
			pt.Stats = loader.LoadParallel(p, servers, splits, loader.DefaultCostModel())
			return nil
		})
		if err != nil {
			return nil, err
		}
		out = append(out, pt)
	}
	return out, nil
}

// reportFig27 prints Figure 27.
func reportFig27(seed int64, _ bool, rep *Report) error {
	rep.Println("Figure 27: parallel data loading (80 splits x 2 MB)")
	rep.Printf("  %8s %12s %12s %12s\n", "servers", "load", "copy", "total")
	pts, err := RunFig27ParallelLoad(seed)
	if err != nil {
		return err
	}
	for _, pt := range pts {
		rep.Printf("  %8d %12v %12v %12v\n", pt.Servers, pt.LoadTime.Round(time.Millisecond),
			pt.CopyTime.Round(time.Millisecond), pt.WallClock.Round(time.Millisecond))
	}
	last := pts[len(pts)-1]
	rep.Metric(fmt.Sprintf("servers%d/speedup", last.Servers), pts[0].WallClock.Seconds()/last.WallClock.Seconds())
	return nil
}
