package exp

import (
	"fmt"
	"remotedb/internal/workload/tpch"
	"time"

	"remotedb/internal/engine/exec"
	"remotedb/internal/engine/plan"
	"remotedb/internal/sim"
)

// ParScanParams sizes the parallel-scan experiment: local memory is
// kept far below the table size and the BPExt far above it, so after a
// warm-up pass almost every page fault is served from remote memory and
// the sweep measures how scan throughput scales with DOP against the
// NIC and the cores.
type ParScanParams struct {
	SF            float64
	LocalMemBytes int64
	BPExtBytes    int64
	DOPs          []int
}

// ParScanGeometry sweeps DOP 1..16 over the lineitem table, or with
// quick DOP 1, 4 and 8 over a smaller one.
func ParScanGeometry(quick bool) ParScanParams {
	if quick {
		return ParScanParams{SF: 0.02, LocalMemBytes: 4 << 20, BPExtBytes: 96 << 20, DOPs: []int{1, 4, 8}}
	}
	return ParScanParams{SF: 0.05, LocalMemBytes: 4 << 20, BPExtBytes: 96 << 20, DOPs: []int{1, 2, 4, 8, 16}}
}

// ParScanPoint is one DOP of the sweep.
type ParScanPoint struct {
	DOP        int
	Elapsed    time.Duration
	RowsPerSec float64
	Speedup    float64 // vs the DOP-1 point
}

// RunParScan runs a full-table count aggregation over lineitem at each
// DOP. The planner lowers it to a parallel scan + partial aggregation
// (ParallelAgg) partitioned on the clustered B-tree's root separators.
func RunParScan(seed int64, prm ParScanParams) ([]ParScanPoint, error) {
	var out []ParScanPoint
	err := RunInSim(seed, 2*time.Hour, func(p *sim.Proc) error {
		bed, db, err := newTPCHBed(p, DesignCustom, TPCHParams{
			SF:            prm.SF,
			LocalMemBytes: prm.LocalMemBytes,
			BPExtBytes:    prm.BPExtBytes,
			TempBytes:     16 << 20,
			Grant:         8 << 20,
			Streams:       1,
		}, tpch.Load)
		if err != nil {
			return err
		}
		rows := db.Lineitem.Clustered.Entries
		query := func() *plan.Builder {
			return plan.Scan(db.Lineitem).
				GroupBy(nil, exec.Agg{Fn: exec.AggCount, As: "n"})
		}
		// Warm-up: populate the BPExt so the sweep reads remote memory,
		// not spindles.
		if _, err := db.Planner.Run(bed.Eng.NewCtx(p), query()); err != nil {
			return err
		}
		for _, dop := range prm.DOPs {
			ctx := bed.Eng.NewCtx(p)
			ctx.DOP = dop
			t0 := p.Now()
			if _, err := db.Planner.Run(ctx, query()); err != nil {
				return err
			}
			pt := ParScanPoint{DOP: dop, Elapsed: p.Now() - t0}
			pt.RowsPerSec = float64(rows) / pt.Elapsed.Seconds()
			if len(out) > 0 && pt.Elapsed > 0 {
				pt.Speedup = float64(out[0].Elapsed) / float64(pt.Elapsed)
			} else {
				pt.Speedup = 1
			}
			out = append(out, pt)
		}
		bed.Close(p)
		return nil
	})
	return out, err
}

// reportParScan prints the DOP sweep.
func reportParScan(seed int64, quick bool, rep *Report) error {
	rep.Println("Parallel scan: lineitem count over remote memory, DOP sweep")
	pts, err := RunParScan(seed, ParScanGeometry(quick))
	if err != nil {
		return err
	}
	rep.Printf("  %6s %14s %16s %10s\n", "DOP", "elapsed", "rows/s", "speedup")
	for _, pt := range pts {
		rep.Printf("  %6d %14v %16.0f %9.2fx\n", pt.DOP,
			pt.Elapsed.Round(time.Microsecond), pt.RowsPerSec, pt.Speedup)
		rep.Metric(fmt.Sprintf("dop%d/rows_per_sec", pt.DOP), pt.RowsPerSec)
		rep.Metric(fmt.Sprintf("dop%d/speedup", pt.DOP), pt.Speedup)
	}
	return nil
}
