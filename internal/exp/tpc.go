package exp

import (
	"fmt"
	"math"
	"sort"
	"strings"
	"time"

	"remotedb/internal/engine"
	"remotedb/internal/engine/exec"
	"remotedb/internal/sim"
	"remotedb/internal/workload"
	"remotedb/internal/workload/tpcc"
	"remotedb/internal/workload/tpcds"
	"remotedb/internal/workload/tpch"
)

// TPCHParams sizes a stream benchmark, TPC-H or TPC-DS. Ratios follow
// Table 4: for TPC-H local memory ≈ 7.6% of data, BPExt ≈ 30% of data,
// five query streams.
type TPCHParams struct {
	SF            float64
	LocalMemBytes int64
	BPExtBytes    int64
	TempBytes     int64
	Grant         int64
	Streams       int
	QueryIDs      []int // subset to run (nil = all)
}

// TPCHGeometry uses SF 0.1 (the paper's SF200 scaled ~1000x, with the
// memory ratios preserved instead of absolute sizes); quick runs five
// queries at SF 0.02 with a smaller BPExt.
func TPCHGeometry(quick bool) TPCHParams {
	prm := TPCHParams{SF: 0.1, LocalMemBytes: 10 << 20, BPExtBytes: 128 << 20, TempBytes: 64 << 20, Grant: 2 << 20, Streams: 5}
	if quick {
		prm.SF, prm.BPExtBytes, prm.QueryIDs = 0.02, 32<<20, []int{1, 3, 6, 10, 18}
	}
	return prm
}

// TPCDSGeometry keeps the paper's 900 GB : 64 GB : 256 GB TPC-DS ratios;
// quick runs seven queries at SF 0.05 with a smaller BPExt.
func TPCDSGeometry(quick bool) TPCHParams {
	prm := TPCHParams{SF: 0.2, LocalMemBytes: 8 << 20, BPExtBytes: 96 << 20, TempBytes: 64 << 20, Grant: 2 << 20, Streams: 5}
	if quick {
		prm.SF, prm.BPExtBytes, prm.QueryIDs = 0.05, 32<<20, []int{1, 5, 10, 20, 30, 40, 50}
	}
	return prm
}

// QueryLatency is one query's measured latency under one design.
type QueryLatency struct {
	QueryID int
	Design  Design
	Latency time.Duration
}

// TPCHResult aggregates Figures 18 and 19 (or 20 and 21) for one design.
type TPCHResult struct {
	Design         Design
	QueriesPerHour float64
	QueryLatencies []QueryLatency
	SpilledQueries int
	// FailedQueries counts the throughput pass's queries that did not
	// complete: a stream ends at its first error, dropping the rest.
	FailedQueries int
}

// newTPCHBed builds a bed sized by prm and loads a database into it
// with load (tpch.Load or tpcds.Load).
func newTPCHBed[DB any](p *sim.Proc, d Design, prm TPCHParams,
	load func(*sim.Proc, *engine.Engine, float64) (DB, error)) (*Bed, DB, error) {
	var db DB
	cfg := DefaultBedConfig(d)
	cfg.LocalMemBytes = prm.LocalMemBytes
	cfg.BPExtBytes = prm.BPExtBytes
	cfg.TempBytes = prm.TempBytes
	cfg.Engine.Grant = prm.Grant
	cfg.OLTP = false // analytics: no SSD BPExt for HDD+SSD (Section 5.3)
	if d.Remote() {
		cfg.RemoteServers = 2
		cfg.MRBytes = 16 << 20
	}
	bed, err := NewBed(p, cfg)
	if err != nil {
		return nil, db, err
	}
	if db, err = load(p, bed.Eng, prm.SF); err != nil {
		return nil, db, err
	}
	if err := bed.Eng.BP.FlushAll(p); err != nil {
		return nil, db, err
	}
	return bed, db, nil
}

// streamQuery is one query of a stream benchmark, bound to its database.
type streamQuery struct {
	id  int
	run func(c *exec.Ctx) error
}

// RunTPCH runs the TPC-H query set on one design (Figures 18/19).
func RunTPCH(seed int64, d Design, prm TPCHParams) (*TPCHResult, error) {
	return runStreams(seed, d, prm, 7, func(p *sim.Proc) (*Bed, []streamQuery, error) {
		bed, db, err := newTPCHBed(p, d, prm, tpch.Load)
		var qs []streamQuery
		for _, q := range tpch.Queries() {
			qs = append(qs, streamQuery{q.ID, func(c *exec.Ctx) error { return q.Run(c, db) }})
		}
		return bed, qs, err
	})
}

// RunTPCDS runs the TPC-DS stand-in's query set on one design (Figures
// 20/21).
func RunTPCDS(seed int64, d Design, prm TPCHParams) (*TPCHResult, error) {
	return runStreams(seed, d, prm, 11, func(p *sim.Proc) (*Bed, []streamQuery, error) {
		bed, db, err := newTPCHBed(p, d, prm, tpcds.Load)
		var qs []streamQuery
		for _, q := range tpcds.Queries() {
			qs = append(qs, streamQuery{q.ID, func(c *exec.Ctx) error { return q.Run(c, db) }})
		}
		return bed, qs, err
	})
}

// runStreams runs a stream benchmark on one design: an untimed warm-up
// pass over the query set, sequential per-query latencies (Figure 19's
// input), then a throughput pass (Figure 18) of prm.Streams concurrent
// streams, stream s running the set rotated by s*stride. load builds
// the bed and binds the queries, numbered from 1 in order.
func runStreams(seed int64, d Design, prm TPCHParams, stride int,
	load func(p *sim.Proc) (*Bed, []streamQuery, error)) (*TPCHResult, error) {
	res := &TPCHResult{Design: d}
	err := RunInSim(seed, 2*time.Hour, func(p *sim.Proc) error {
		bed, queries, err := load(p)
		if err != nil {
			return err
		}
		if prm.QueryIDs != nil {
			all := queries
			queries = nil
			for _, id := range prm.QueryIDs {
				queries = append(queries, all[id-1])
			}
		}
		// Warm-up pass: one untimed execution of the set so the BPExt
		// reaches steady state (the paper measures warmed systems).
		for _, q := range queries {
			if err := q.run(bed.Eng.NewCtx(p)); err != nil {
				return err
			}
		}
		// Pass 1: per-query latencies, sequential.
		for _, q := range queries {
			ctx := bed.Eng.NewCtx(p)
			t0 := p.Now()
			if err := q.run(ctx); err != nil {
				return err
			}
			res.QueryLatencies = append(res.QueryLatencies, QueryLatency{
				QueryID: q.id, Design: d, Latency: p.Now() - t0,
			})
			if ctx.SpilledParts > 0 || ctx.SpilledRuns > 0 {
				res.SpilledQueries++
			}
		}
		// Pass 2: throughput with concurrent streams, each running the
		// set in a rotated order.
		k := p.Kernel()
		start := p.Now()
		var completed int
		wg := sim.NewWaitGroup(k)
		wg.Add(prm.Streams)
		for s := 0; s < prm.Streams; s++ {
			k.Go("stream", func(sp *sim.Proc) {
				defer wg.Done()
				for i := range queries {
					q := queries[(i+s*stride)%len(queries)]
					if err := q.run(bed.Eng.NewCtx(sp)); err != nil {
						return
					}
					completed++
				}
			})
		}
		wg.Wait(p)
		elapsed := p.Now() - start
		res.QueriesPerHour = float64(completed) / elapsed.Hours()
		res.FailedQueries = prm.Streams*len(queries) - completed
		bed.Close(p)
		return nil
	})
	return res, err
}

// reportStreams prints Figures 18/19 (TPC-H) or, with tpcds, 20/21: each
// design's throughput, then the latency improvement histogram of Custom
// over HDD+SSD. The TPC-H rows also count spilling queries, and its
// histogram lists each query's factor.
func reportStreams(seed int64, quick bool, rep *Report, tpcds bool) error {
	fig, name, run, prm := 18, "TPC-H", RunTPCH, TPCHGeometry(quick)
	if tpcds {
		fig, name, run, prm = 20, "TPC-DS", RunTPCDS, TPCDSGeometry(quick)
	}
	rep.Printf("Figure %d: %s throughput (queries/hour)\n", fig, name)
	results := make(map[Design]*TPCHResult)
	for _, d := range designsFor(quick, AllDesigns) {
		r, err := run(seed, d, prm)
		if err != nil {
			return err
		}
		results[d] = r
		var notes []string
		if !tpcds {
			notes = append(notes, fmt.Sprintf("spilling queries: %d", r.SpilledQueries))
		}
		if r.FailedQueries > 0 {
			notes = append(notes, fmt.Sprintf("failed: %d", r.FailedQueries))
		}
		note := ""
		if len(notes) > 0 {
			note = "  (" + strings.Join(notes, ", ") + ")"
		}
		rep.Printf("  %-22s %12.0f q/h%s\n", d, r.QueriesPerHour, note)
		rep.Metric(fmt.Sprintf("%s/queries_per_hour", d), r.QueriesPerHour)
		rep.Metric(fmt.Sprintf("%s/failed_queries", d), float64(r.FailedQueries))
	}
	base, cust := results[DesignHDDSSD], results[DesignCustom]
	if base == nil || cust == nil {
		return nil
	}
	h := Improvements(base.QueryLatencies, cust.QueryLatencies)
	rep.Printf("Figure %d: latency improvement histogram (Custom vs HDD+SSD):\n", fig+1)
	rep.Println(" " + histogramLine(h))
	lo, hi := math.Inf(1), math.Inf(-1)
	var ids []int
	for id, f := range h.Factors {
		ids = append(ids, id)
		lo, hi = min(lo, f), max(hi, f)
	}
	rep.Metric("min_improvement", lo)
	rep.Metric("max_improvement", hi)
	if tpcds {
		return nil
	}
	sort.Ints(ids)
	for _, id := range ids {
		rep.Printf("    Q%-3d %8.1fx\n", id, h.Factors[id])
	}
	return nil
}

// ImprovementHistogram buckets per-query latency improvement factors the
// way Figures 19 and 21 do.
type ImprovementHistogram struct {
	Buckets map[string]int // "<2x", "2-5x", "5-10x", "10-50x", "50-100x", ">=100x"
	Factors map[int]float64
}

// Improvements computes baseline/custom latency ratios per query.
func Improvements(baseline, custom []QueryLatency) *ImprovementHistogram {
	base := make(map[int]time.Duration)
	for _, q := range baseline {
		base[q.QueryID] = q.Latency
	}
	h := &ImprovementHistogram{Buckets: make(map[string]int), Factors: make(map[int]float64)}
	for _, q := range custom {
		b, ok := base[q.QueryID]
		if !ok || q.Latency <= 0 {
			continue
		}
		f := float64(b) / float64(q.Latency)
		h.Factors[q.QueryID] = f
		switch {
		case f < 2:
			h.Buckets["<2x"]++
		case f < 5:
			h.Buckets["2-5x"]++
		case f < 10:
			h.Buckets["5-10x"]++
		case f < 50:
			h.Buckets["10-50x"]++
		case f < 100:
			h.Buckets["50-100x"]++
		default:
			h.Buckets[">=100x"]++
		}
	}
	return h
}

// histogramLine renders the histogram's buckets in order.
func histogramLine(h *ImprovementHistogram) string {
	s := ""
	for _, b := range []string{"<2x", "2-5x", "5-10x", "10-50x", "50-100x", ">=100x"} {
		s += fmt.Sprintf(" %s:%d", b, h.Buckets[b])
	}
	return s
}

// --- TPC-C ----------------------------------------------------------------

// TPCCResult is one bar of Figures 22/23.
type TPCCResult struct {
	Design     Design
	ReadMostly bool
	Throughput float64
	MeanLat    time.Duration
}

// TPCCParams sizes the TPC-C experiment: 168 GB data / 16 GB memory /
// 32 GB BPExt, scaled.
type TPCCParams struct {
	Cfg           tpcc.Config
	LocalMemBytes int64
	BPExtBytes    int64
	Warmup        time.Duration
	Measure       time.Duration
}

// TPCCGeometry mirrors Table 4's TPC-C row; quick halves the
// warehouses and runs a quarter of the clients.
func TPCCGeometry(quick bool) TPCCParams {
	prm := TPCCParams{Cfg: tpcc.DefaultConfig(), LocalMemBytes: 16 << 20, BPExtBytes: 32 << 20,
		Warmup: 300 * time.Millisecond, Measure: time.Second}
	if quick {
		prm.Cfg.Warehouses, prm.Cfg.Clients = 4, 50
	}
	return prm
}

// RunTPCC runs one mix on one design.
func RunTPCC(seed int64, d Design, readMostly bool, prm TPCCParams) (*TPCCResult, error) {
	res := &TPCCResult{Design: d, ReadMostly: readMostly}
	err := RunInSim(seed, 2*time.Hour, func(p *sim.Proc) error {
		cfg := DefaultBedConfig(d)
		cfg.LocalMemBytes = prm.LocalMemBytes
		cfg.BPExtBytes = prm.BPExtBytes
		cfg.TempBytes = 8 << 20
		cfg.OLTP = true
		bed, err := NewBed(p, cfg)
		if err != nil {
			return err
		}
		wcfg := prm.Cfg
		wcfg.ReadMostly = readMostly
		db, err := tpcc.Load(p, bed.Eng, wcfg)
		if err != nil {
			return err
		}
		if err := bed.Eng.BP.FlushAll(p); err != nil {
			return err
		}
		r := workload.Drive(p, wcfg.Clients, prm.Warmup, prm.Measure, func(wp *sim.Proc, _ int) error {
			return db.RunOne(wp)
		})
		res.Throughput = r.Throughput()
		res.MeanLat = r.Latency.Mean()
		bed.Close(p)
		return nil
	})
	return res, err
}

// reportTPCC prints Figures 22/23.
func reportTPCC(seed int64, quick bool, rep *Report) error {
	prm := TPCCGeometry(quick)
	for _, rm := range []bool{false, true} {
		label := "Default TPCC"
		if rm {
			label = "Read-Mostly TPCC"
		}
		rep.Printf("Figures 22/23: %s\n", label)
		rep.Printf("  %-22s %14s %12s\n", "design", "tx/s", "mean lat")
		for _, d := range designsFor(quick, AllDesigns) {
			r, err := RunTPCC(seed, d, rm, prm)
			if err != nil {
				return err
			}
			rep.Printf("  %-22s %14.0f %12v\n", d, r.Throughput, r.MeanLat.Round(time.Microsecond))
			key := fmt.Sprintf("%s/%s", label, d)
			rep.Metric(key+"/tx_per_sec", r.Throughput)
			rep.MetricDur(key+"/mean_lat_ms", r.MeanLat)
		}
	}
	return nil
}
