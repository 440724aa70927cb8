package exp

import (
	"time"

	"remotedb/internal/sim"
	"remotedb/internal/workload"
	"remotedb/internal/workload/tpcc"
	"remotedb/internal/workload/tpcds"
	"remotedb/internal/workload/tpch"
)

// TPCHParams sizes the TPC-H experiment. Ratios follow Table 4: local
// memory ≈ 7.6% of data, BPExt ≈ 30% of data, five query streams.
type TPCHParams struct {
	SF            float64
	LocalMemBytes int64
	BPExtBytes    int64
	TempBytes     int64
	Grant         int64
	Streams       int
	QueryIDs      []int // subset to run (nil = all 22)
}

// DefaultTPCHParams uses SF 0.1 (the paper's SF200 scaled ~1000x, with
// the memory ratios preserved instead of absolute sizes).
func DefaultTPCHParams() TPCHParams {
	return TPCHParams{
		SF:            0.1,
		LocalMemBytes: 10 << 20,
		BPExtBytes:    128 << 20,
		TempBytes:     64 << 20,
		Grant:         2 << 20,
		Streams:       5,
	}
}

// QueryLatency is one query's measured latency under one design.
type QueryLatency struct {
	QueryID int
	Design  Design
	Latency time.Duration
}

// TPCHResult aggregates Figures 18 and 19 for one design.
type TPCHResult struct {
	Design         Design
	QueriesPerHour float64
	QueryLatencies []QueryLatency
	SpilledQueries int
}

// newTPCHBed builds a bed and loads TPC-H into it.
func newTPCHBed(p *sim.Proc, d Design, prm TPCHParams) (*Bed, *tpch.DB, error) {
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
		return nil, nil, err
	}
	db, err := tpch.Load(p, bed.Eng, prm.SF)
	if err != nil {
		return nil, nil, err
	}
	if err := bed.Eng.BP.FlushAll(p); err != nil {
		return nil, nil, err
	}
	return bed, db, nil
}

// RunTPCH runs the query set on one design: sequential per-query
// latencies (Figure 19's input) followed by a multi-stream throughput
// pass (Figure 18).
func RunTPCH(seed int64, d Design, prm TPCHParams) (*TPCHResult, error) {
	res := &TPCHResult{Design: d}
	queries := tpch.Queries()
	if prm.QueryIDs != nil {
		queries = nil
		for _, id := range prm.QueryIDs {
			queries = append(queries, tpch.QueryByID(id))
		}
	}
	err := RunInSim(seed, 2*time.Hour, func(p *sim.Proc) error {
		bed, db, err := newTPCHBed(p, d, prm)
		if err != nil {
			return err
		}
		// Warm-up pass: one untimed execution of the set so the BPExt
		// reaches steady state (the paper measures warmed systems).
		for _, q := range queries {
			if err := q.Run(bed.Eng.NewCtx(p), db); err != nil {
				return err
			}
		}
		// Pass 1: per-query latencies, sequential.
		for _, q := range queries {
			ctx := bed.Eng.NewCtx(p)
			t0 := p.Now()
			if err := q.Run(ctx, db); err != nil {
				return err
			}
			res.QueryLatencies = append(res.QueryLatencies, QueryLatency{
				QueryID: q.ID, Design: d, Latency: p.Now() - t0,
			})
			if ctx.SpilledParts > 0 || ctx.SpilledRuns > 0 {
				res.SpilledQueries++
			}
		}
		// Pass 2: throughput with concurrent streams, each running the
		// set in a rotated order.
		k := p.Kernel()
		start := p.Now()
		var completed int64
		wg := sim.NewWaitGroup(k)
		wg.Add(prm.Streams)
		for s := 0; s < prm.Streams; s++ {
			s := s
			k.Go("stream", func(sp *sim.Proc) {
				defer wg.Done()
				for i := range queries {
					q := queries[(i+s*7)%len(queries)]
					ctx := bed.Eng.NewCtx(sp)
					if err := q.Run(ctx, db); err != nil {
						return
					}
					completed++
				}
			})
		}
		wg.Wait(p)
		elapsed := p.Now() - start
		res.QueriesPerHour = float64(completed) / elapsed.Hours()
		bed.Close(p)
		return nil
	})
	return res, err
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

// --- TPC-DS ---------------------------------------------------------------

// TPCDSParams sizes the TPC-DS experiment.
type TPCDSParams struct {
	SF            float64
	LocalMemBytes int64
	BPExtBytes    int64
	TempBytes     int64
	Grant         int64
	Streams       int
	QueryIDs      []int
}

// DefaultTPCDSParams keeps the paper's 900 GB : 64 GB : 256 GB ratios.
func DefaultTPCDSParams() TPCDSParams {
	return TPCDSParams{
		SF:            0.2,
		LocalMemBytes: 8 << 20,
		BPExtBytes:    96 << 20,
		TempBytes:     64 << 20,
		Grant:         2 << 20,
		Streams:       5,
	}
}

// RunTPCDS mirrors RunTPCH for the TPC-DS stand-in (Figures 20/21).
func RunTPCDS(seed int64, d Design, prm TPCDSParams) (*TPCHResult, error) {
	res := &TPCHResult{Design: d}
	all := tpcds.Queries()
	queries := all
	if prm.QueryIDs != nil {
		queries = nil
		for _, id := range prm.QueryIDs {
			queries = append(queries, all[id-1])
		}
	}
	err := RunInSim(seed, 2*time.Hour, func(p *sim.Proc) error {
		cfg := DefaultBedConfig(d)
		cfg.LocalMemBytes = prm.LocalMemBytes
		cfg.BPExtBytes = prm.BPExtBytes
		cfg.TempBytes = prm.TempBytes
		cfg.Engine.Grant = prm.Grant
		cfg.OLTP = false
		if d.Remote() {
			cfg.RemoteServers = 2
			cfg.MRBytes = 16 << 20
		}
		bed, err := NewBed(p, cfg)
		if err != nil {
			return err
		}
		db, err := tpcds.Load(p, bed.Eng, prm.SF)
		if err != nil {
			return err
		}
		if err := bed.Eng.BP.FlushAll(p); err != nil {
			return err
		}
		// Warm-up pass (steady-state BPExt), then timed pass.
		for _, q := range queries {
			if err := q.Run(bed.Eng.NewCtx(p), db); err != nil {
				return err
			}
		}
		for _, q := range queries {
			ctx := bed.Eng.NewCtx(p)
			t0 := p.Now()
			if err := q.Run(ctx, db); err != nil {
				return err
			}
			res.QueryLatencies = append(res.QueryLatencies, QueryLatency{
				QueryID: q.ID, Design: d, Latency: p.Now() - t0,
			})
		}
		k := p.Kernel()
		start := p.Now()
		var completed int64
		wg := sim.NewWaitGroup(k)
		wg.Add(prm.Streams)
		for s := 0; s < prm.Streams; s++ {
			s := s
			k.Go("stream", func(sp *sim.Proc) {
				defer wg.Done()
				for i := range queries {
					q := queries[(i+s*11)%len(queries)]
					ctx := bed.Eng.NewCtx(sp)
					if err := q.Run(ctx, db); err != nil {
						return
					}
					completed++
				}
			})
		}
		wg.Wait(p)
		elapsed := p.Now() - start
		res.QueriesPerHour = float64(completed) / elapsed.Hours()
		bed.Close(p)
		return nil
	})
	return res, err
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

// DefaultTPCCParams mirrors Table 4's TPC-C row.
func DefaultTPCCParams() TPCCParams {
	return TPCCParams{
		Cfg:           tpcc.DefaultConfig(),
		LocalMemBytes: 16 << 20,
		BPExtBytes:    32 << 20,
		Warmup:        300 * time.Millisecond,
		Measure:       time.Second,
	}
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
