// Pushdown experiment: donor-side operator pushdown vs fetch-all over
// one pushable remote segment, swept across predicate selectivities.
// At low selectivity only the qualifying bytes cross the wire and the
// donors' tight evaluator replaces the engine's per-row decode path,
// so pushdown wins by roughly the CPU/bandwidth ratio; as the
// predicate stops filtering, the donor pass becomes pure overhead and
// the optimizer must cross over to fetch-all. A final lane pokes
// corruption into donor memory and revokes a stripe mid-query: the
// per-block fallback ladder must keep the pushed scan correct with
// zero engine-visible errors.
package exp

import (
	"fmt"
	"math"
	"time"

	"remotedb/internal/engine/exec"
	"remotedb/internal/engine/opt"
	"remotedb/internal/engine/plan"
	"remotedb/internal/engine/row"
	"remotedb/internal/rmem"
	"remotedb/internal/sim"
)

// PushdownParams sizes the experiment. The value column is uniform over
// [0, 1000), so a selectivity s maps to the predicate v < s*1000. Rows
// carry a ~200-byte payload so the sweep is wire-bound like a real
// analytic scan, not dominated by per-record fixed costs.
type PushdownParams struct {
	Rows          int
	Selectivities []float64
}

// pushdownPad is the payload carried by every row.
const pushdownPad = 192

// PushdownGeometry sweeps four selectivity regimes; quick on a quarter
// of the rows.
func PushdownGeometry(quick bool) PushdownParams {
	prm := PushdownParams{Rows: 120000, Selectivities: []float64{0.001, 0.01, 0.1, 1.0}}
	if quick {
		prm.Rows = 30000
	}
	return prm
}

// PushdownPoint is one selectivity of the sweep.
type PushdownPoint struct {
	Selectivity float64
	Matched     int64
	Push        time.Duration // forced donor-side evaluation
	Fetch       time.Duration // forced fetch-all (client-side evaluation)
	Chosen      string        // placement the optimizer picked
	ChosenTime  time.Duration
	Speedup     float64 // Fetch / Push
	WithinBest  float64 // ChosenTime / min(Push, Fetch)
}

// PushdownResult is the full sweep plus the corruption/revocation lane.
type PushdownResult struct {
	Rows         int64
	SegmentBytes int64
	Crossover    float64 // model-predicted push→fetch-all crossover selectivity
	Points       []PushdownPoint

	// Corruption/revocation lane: a pushed scan through bit flips, a
	// torn write, and a revoked stripe.
	FaultRows      int64 // rows returned (must equal the clean count)
	FaultErrors    int64 // engine-visible errors (must be 0)
	ExecFallbacks  int64 // partitions degraded to fetch-all in the executor
	BlockFallbacks int64 // per-block donor→client fallbacks in core
	Corruptions    int64 // blocks that failed donor-side verification
	PushReads      int64 // pushed range reads issued by core
}

// pushdownCols is the segment's field layout: k (PK), v (uniform
// 0..999), total, pad.
var pushdownCols = []rmem.FieldKind{
	rmem.FieldInt64, rmem.FieldInt64, rmem.FieldFloat64, rmem.FieldBytes,
}

func pushdownQuery(cut int64) *rmem.PushQuery {
	return &rmem.PushQuery{
		Cols:  pushdownCols,
		Preds: []rmem.PushLeaf{{Col: 1, Op: rmem.PushLT, Int: cut}},
	}
}

// RunPushdown measures forced push, forced fetch-all, and the
// optimizer's choice at each selectivity, then drives a pushed scan
// through a corruption + revocation storm.
func RunPushdown(seed int64, prm PushdownParams) (*PushdownResult, error) {
	res := &PushdownResult{}
	err := RunInSim(seed, 2*time.Hour, func(p *sim.Proc) error {
		cfg := DefaultBedConfig(DesignCustom)
		cfg.LocalMemBytes = 64 << 20
		cfg.BPExtBytes = 0
		cfg.TempBytes = 8 << 20
		cfg.RemoteServers = 3
		cfg.FS.Integrity = true // pushed reads verify donor-side; framing defines the chunk
		cfg.FS.Replication = 2  // corrupt/revoked stripes repair from the replica
		cfg.Engine.Pushdown = true
		bed, err := NewBed(p, cfg)
		if err != nil {
			return err
		}
		eng := bed.Eng
		eng.DOP = 8 // analytic scan: spread donor eval wide

		sch := row.NewSchema(
			row.Column{Name: "k", Type: row.Int64},
			row.Column{Name: "v", Type: row.Int64},
			row.Column{Name: "total", Type: row.Float64},
			row.Column{Name: "pad", Type: row.Bytes},
		)
		tbl, err := eng.Catalog.CreateTable(p, "pushtab", sch, "k")
		if err != nil {
			return err
		}
		pad := make([]byte, pushdownPad)
		var rows []row.Tuple
		for i := 0; i < prm.Rows; i++ {
			rows = append(rows, row.Tuple{int64(i), int64(i % 1000), float64(i), pad})
		}
		if err := tbl.BulkLoad(p, rows); err != nil {
			return err
		}

		// Mirror the table into a framed remote segment. Size the file
		// generously: records are ~230 bytes framed into 4K chunks.
		segFile, err := bed.FS.Create(p, "pushseg", int64(prm.Rows)*280+(2<<20))
		if err != nil {
			return err
		}
		if err := segFile.OpenConn(p); err != nil {
			return err
		}
		if err := eng.BuildPushSegment(p, tbl, segFile); err != nil {
			return err
		}
		seg := tbl.Push
		res.Rows = seg.Rows
		res.SegmentBytes = seg.Bytes
		res.Crossover = eng.Cost.PushCrossoverSelectivity(opt.PushScanInputs{
			Rows:      seg.Rows,
			Bytes:     seg.Bytes,
			OutBytes:  seg.Bytes / seg.Rows,
			Leaves:    1,
			LocalTier: opt.TierRemote,
			DOP:       eng.DOP,
		})

		timed := func(op exec.Op) (int64, time.Duration, error) {
			ctx := eng.NewCtx(p)
			t0 := p.Now()
			n, err := exec.Run(ctx, op)
			ctx.FlushCPU()
			return n, p.Now() - t0, err
		}

		for _, sel := range prm.Selectivities {
			cut := int64(math.Round(sel * 1000))
			pt := PushdownPoint{Selectivity: sel}

			n, d, err := timed(&exec.PushScan{Table: tbl, Query: pushdownQuery(cut)})
			if err != nil {
				return fmt.Errorf("push arm sel=%g: %w", sel, err)
			}
			pt.Matched, pt.Push = n, d

			n, d, err = timed(&exec.PushScan{Table: tbl, Query: pushdownQuery(cut), FetchAll: true})
			if err != nil {
				return fmt.Errorf("fetch arm sel=%g: %w", sel, err)
			}
			if n != pt.Matched {
				return fmt.Errorf("fetch arm sel=%g returned %d rows, push returned %d", sel, n, pt.Matched)
			}
			pt.Fetch = d

			// The optimizer's choice, lowered through the planner (the
			// WhereCmp hint carries the selectivity).
			ctx := eng.NewCtx(p)
			op, err := eng.Planner.Lower(ctx, plan.Scan(tbl).WhereCmp("v", plan.CmpLT, cut, sel))
			if err != nil {
				return err
			}
			pt.Chosen = "LocalScan"
			if ps, ok := op.(*exec.PushScan); ok {
				pt.Chosen = "PushScan"
				if ps.FetchAll {
					pt.Chosen = "FetchAll"
				}
			}
			t0 := p.Now()
			n, err = exec.Run(ctx, op)
			ctx.FlushCPU()
			if err != nil {
				return fmt.Errorf("chosen arm sel=%g: %w", sel, err)
			}
			if n != pt.Matched {
				return fmt.Errorf("chosen arm sel=%g returned %d rows, want %d", sel, n, pt.Matched)
			}
			pt.ChosenTime = p.Now() - t0

			if pt.Push > 0 {
				pt.Speedup = float64(pt.Fetch) / float64(pt.Push)
			}
			best := pt.Push
			if pt.Fetch < best {
				best = pt.Fetch
			}
			if best > 0 {
				pt.WithinBest = float64(pt.ChosenTime) / float64(best)
			}
			res.Points = append(res.Points, pt)
		}

		// Fault lanes: first silent corruption (bit flips + a torn
		// write on the primary copies), then a primary-lease
		// revocation. They run as separate scans because the revocation
		// watcher restripes the lost copy from the surviving replica —
		// a rebuild that would also scrub away the injected flips
		// before a combined scan could observe them. The donor-side
		// verify must catch every bad frame, the per-block fallback
		// must repair from the replica, and the revoked copy must fail
		// over — all invisible to the engine.
		clean := res.Points[1].Matched // the 1% point's row count
		stormScan := func() int64 {
			op := &exec.PushScan{Table: tbl, Query: pushdownQuery(10)}
			n, _, err := timed(op)
			if err != nil || n != clean {
				res.FaultErrors++
			}
			res.ExecFallbacks += op.Fallbacks
			return n
		}
		blocks0 := bed.FS.PushFallbacks
		now := p.Now()
		bed.InjectFaults([]FaultEvent{
			{At: now + time.Millisecond, Kind: FaultBitFlip, Name: "pushseg", N: 0},
			{At: now + time.Millisecond, Kind: FaultBitFlip, Name: "pushseg", N: 97},
			{At: now + time.Millisecond, Kind: FaultBitFlip, Name: "pushseg", N: 511},
			{At: now + time.Millisecond, Kind: FaultTornWrite, Name: "pushseg", N: 199},
		})
		p.Sleep(2 * time.Millisecond)
		res.FaultRows = stormScan()

		now = p.Now()
		bed.InjectFaults([]FaultEvent{
			{At: now + time.Millisecond, Kind: FaultRevokeFile, Name: "pushseg", N: 1},
		})
		p.Sleep(2 * time.Millisecond)
		if n := stormScan(); n != res.FaultRows {
			res.FaultRows = -1 // lanes disagree; fail the row check loudly
		}
		res.BlockFallbacks = bed.FS.PushFallbacks - blocks0
		res.Corruptions = bed.FS.Corruptions.N
		res.PushReads = bed.FS.PushReads

		bed.Close(p)
		return nil
	})
	return res, err
}

// reportPushdown prints the selectivity sweep and the storm, and fails
// unless the placement model holds its acceptance bars, so CI fails
// when it drifts:
//
//   - >=3x speedup over fetch-all at 1% selectivity,
//   - fetch-all chosen and within 5% of the best arm at 100%,
//   - zero engine-visible errors (and no missing rows) when pushed
//     scans hit corrupted and revoked stripes.
func reportPushdown(seed int64, quick bool, rep *Report) error {
	rep.Println("Operator pushdown: donor-side eval vs fetch-all by selectivity,")
	rep.Println("optimizer placement, and a pushed scan through a corruption +")
	rep.Println("revocation storm")
	res, err := RunPushdown(seed, PushdownGeometry(quick))
	if err != nil {
		return err
	}
	rep.Printf("  segment: %d rows, %d MB; model crossover at %.1f%% selectivity\n",
		res.Rows, res.SegmentBytes>>20, res.Crossover*100)
	rep.Printf("  %8s %10s %12s %12s %10s %12s %8s %8s\n",
		"sel", "matched", "push", "fetch-all", "chosen", "chosen t", "speedup", "of-best")
	var at1pct, at100pct *PushdownPoint
	for i := range res.Points {
		pt := &res.Points[i]
		rep.Printf("  %7.1f%% %10d %12v %12v %10s %12v %7.2fx %7.2fx\n",
			pt.Selectivity*100, pt.Matched,
			pt.Push.Round(time.Microsecond), pt.Fetch.Round(time.Microsecond),
			pt.Chosen, pt.ChosenTime.Round(time.Microsecond),
			pt.Speedup, pt.WithinBest)
		key := fmt.Sprintf("sel%g", pt.Selectivity)
		rep.MetricDur(key+"/push_ms", pt.Push)
		rep.MetricDur(key+"/fetch_ms", pt.Fetch)
		rep.MetricDur(key+"/chosen_ms", pt.ChosenTime)
		rep.Metric(key+"/speedup", pt.Speedup)
		rep.Metric(key+"/within_best", pt.WithinBest)
		switch pt.Selectivity {
		case 0.01:
			at1pct = pt
		case 1.0:
			at100pct = pt
		}
	}
	rep.Printf("  storm: rows=%d errors=%d exec-fallbacks=%d block-fallbacks=%d corruptions=%d push-reads=%d\n",
		res.FaultRows, res.FaultErrors, res.ExecFallbacks, res.BlockFallbacks,
		res.Corruptions, res.PushReads)
	rep.Metric("crossover_pct", res.Crossover*100)
	rep.Metric("fault_rows", float64(res.FaultRows))
	rep.Metric("fault_errors", float64(res.FaultErrors))
	rep.Metric("exec_fallbacks", float64(res.ExecFallbacks))
	rep.Metric("block_fallbacks", float64(res.BlockFallbacks))
	rep.Metric("corruptions", float64(res.Corruptions))
	rep.Metric("push_reads", float64(res.PushReads))

	// Acceptance bars.
	if at1pct == nil || at100pct == nil {
		return fmt.Errorf("sweep missing the 1%% or 100%% selectivity point")
	}
	if at1pct.Speedup < 3 {
		return fmt.Errorf("pushdown speedup at 1%% selectivity is %.2fx, want >= 3x", at1pct.Speedup)
	}
	if at100pct.Chosen != "FetchAll" {
		return fmt.Errorf("optimizer chose %s at 100%% selectivity, want FetchAll", at100pct.Chosen)
	}
	if at100pct.WithinBest > 1.05 {
		return fmt.Errorf("chosen placement at 100%% selectivity is %.2fx the best arm, want <= 1.05x", at100pct.WithinBest)
	}
	if res.FaultErrors != 0 {
		return fmt.Errorf("%d engine-visible errors through the corruption/revocation storm, want 0", res.FaultErrors)
	}
	if res.FaultRows != at1pct.Matched {
		return fmt.Errorf("storm scan returned %d rows, want the clean count %d", res.FaultRows, at1pct.Matched)
	}
	if res.Corruptions == 0 || res.BlockFallbacks == 0 {
		return fmt.Errorf("storm detected %d corruptions with %d block fallbacks; the fault lane did not exercise the ladder",
			res.Corruptions, res.BlockFallbacks)
	}
	return nil
}
