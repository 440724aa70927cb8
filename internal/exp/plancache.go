package exp

import (
	"fmt"
	"remotedb/internal/workload/tpch"
	"time"

	"remotedb/internal/engine/exec"
	"remotedb/internal/engine/plan"
	"remotedb/internal/engine/row"
	"remotedb/internal/sim"
)

// PlanCacheParams sizes the plan-cache experiment: a stream of
// identically-shaped small range-aggregation queries whose PK bounds
// shift every repetition (the prepared-statement pattern).
type PlanCacheParams struct {
	SF   float64
	Reps int
	Span int64 // PK rows touched per query
}

// PlanCacheGeometry uses a small database so that optimization time is
// visible next to execution time, as it is for short OLTP-ish reporting
// queries; quick runs a quarter of the repetitions.
func PlanCacheGeometry(quick bool) PlanCacheParams {
	if quick {
		return PlanCacheParams{SF: 0.02, Reps: 50, Span: 200}
	}
	return PlanCacheParams{SF: 0.02, Reps: 200, Span: 200}
}

// PlanCacheResult compares the cached and uncached planner on the same
// query stream.
type PlanCacheResult struct {
	CachedTime   time.Duration // whole stream, plan cache on
	UncachedTime time.Duration // whole stream, plan cache disabled
	ColdLat      time.Duration // first query (compulsory miss)
	WarmLat      time.Duration // mean of the remaining queries, cache on
	Hits, Misses int64
	Speedup      float64 // UncachedTime / CachedTime
}

// RunPlanCache measures how much of a repeated small query's latency is
// optimization, by running the same parameterized query stream through
// a caching and a non-caching planner. Bounds differ per repetition;
// the plan signature does not, so the cached planner optimizes once.
func RunPlanCache(seed int64, prm PlanCacheParams) (*PlanCacheResult, error) {
	out := &PlanCacheResult{}
	err := RunInSim(seed, 2*time.Hour, func(p *sim.Proc) error {
		bed, db, err := newTPCHBed(p, DesignCustom, TPCHParams{
			SF:            prm.SF,
			LocalMemBytes: 8 << 20,
			BPExtBytes:    64 << 20,
			TempBytes:     16 << 20,
			Grant:         2 << 20,
			Streams:       1,
		}, tpch.Load)
		if err != nil {
			return err
		}
		orders := db.Orders.Clustered.Entries
		if orders <= prm.Span+1 {
			return fmt.Errorf("plancache: only %d orders, need > %d", orders, prm.Span)
		}
		query := func(i int) *plan.Builder {
			start := (int64(i)*prm.Span)%(orders-prm.Span) + 1
			return plan.ScanRange(db.Orders,
				row.EncodeKey(nil, start), row.EncodeKey(nil, start+prm.Span)).
				GroupBy([]string{"orderpriority"},
					exec.Agg{Fn: exec.AggSum, Col: "totalprice", As: "revenue"})
		}
		stream := func(pl *plan.Planner) (total, cold, warm time.Duration, err error) {
			t0 := p.Now()
			for i := 0; i < prm.Reps; i++ {
				q0 := p.Now()
				if _, err = pl.Run(bed.Eng.NewCtx(p), query(i)); err != nil {
					return
				}
				if i == 0 {
					cold = p.Now() - q0
				}
			}
			total = p.Now() - t0
			if prm.Reps > 1 {
				warm = (total - cold) / time.Duration(prm.Reps-1)
			}
			return
		}
		// Warm the buffer pool so both passes fault the same (few) pages.
		if _, _, _, err := stream(plan.NewPlanner(bed.Eng.Cost, -1)); err != nil {
			return err
		}
		uncached := plan.NewPlanner(bed.Eng.Cost, -1)
		if out.UncachedTime, _, _, err = stream(uncached); err != nil {
			return err
		}
		cached := bed.Eng.Planner
		if out.CachedTime, out.ColdLat, out.WarmLat, err = stream(cached); err != nil {
			return err
		}
		out.Hits, out.Misses = cached.Hits, cached.Misses
		if out.CachedTime > 0 {
			out.Speedup = float64(out.UncachedTime) / float64(out.CachedTime)
		}
		bed.Close(p)
		return nil
	})
	return out, err
}

// reportPlanCache prints the plan-cache experiment.
func reportPlanCache(seed int64, quick bool, rep *Report) error {
	rep.Println("Plan cache: one query shape, shifting PK bounds, cache on vs off")
	prm := PlanCacheGeometry(quick)
	res, err := RunPlanCache(seed, prm)
	if err != nil {
		return err
	}
	rep.Printf("  %d reps: cached=%v uncached=%v (%.1fx)\n",
		prm.Reps, res.CachedTime.Round(time.Microsecond),
		res.UncachedTime.Round(time.Microsecond), res.Speedup)
	rep.Printf("  cold query=%v warm query=%v  hits=%d misses=%d\n",
		res.ColdLat.Round(time.Microsecond), res.WarmLat.Round(time.Microsecond),
		res.Hits, res.Misses)
	rep.MetricDur("cached_ms", res.CachedTime)
	rep.MetricDur("uncached_ms", res.UncachedTime)
	rep.MetricDur("cold_lat_ms", res.ColdLat)
	rep.MetricDur("warm_lat_ms", res.WarmLat)
	rep.Metric("speedup", res.Speedup)
	rep.Metric("hits", float64(res.Hits))
	rep.Metric("misses", float64(res.Misses))
	return nil
}
