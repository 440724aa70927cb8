package exp

import (
	"fmt"
	"time"

	"remotedb/internal/engine/exec"
	"remotedb/internal/engine/row"
	"remotedb/internal/engine/semcache"
	"remotedb/internal/engine/txn"
	"remotedb/internal/sim"
	"remotedb/internal/vfs"
	"remotedb/internal/workload/tpch"
)

// vfsFile shortens the factory signatures below.
type vfsFile = vfs.File

// newSSDFile places a cache entry on the bed's SSD.
func newSSDFile(bed *Bed, name string) vfs.File {
	return vfs.NewDeviceFile(name, bed.DB.SSD)
}

// MVResult is one bar group of Figure 15a.
type MVResult struct {
	QueryID     int
	BaseLatency time.Duration // tuned indexes, no MV
	SSDLatency  time.Duration // MV stored on HDD+SSD
	RemoteLat   time.Duration // MV pinned in remote memory
	MVBytes     int64
}

// ImprovementSSD returns base/SSD.
func (r MVResult) ImprovementSSD() float64 { return float64(r.BaseLatency) / float64(r.SSDLatency) }

// ImprovementRemote returns base/remote.
func (r MVResult) ImprovementRemote() float64 {
	return float64(r.BaseLatency) / float64(r.RemoteLat)
}

// mvCase defines one materialized view: the MV is a finer-grained
// pre-aggregation/pre-join of the query, so answering from it means a
// cheap re-aggregation instead of base-table scans. The seven queries
// mirror the paper's "seven queries benefited from an MV".
type mvCase struct {
	queryID int
	// build produces the MV contents.
	build func(db *tpch.DB) exec.Op
	// answer consumes the MV rows to produce the query result.
	answer func(mv exec.Op) exec.Op
}

func mvCases(db *tpch.DB) []mvCase {
	return []mvCase{
		{1, func(db *tpch.DB) exec.Op {
			// Pre-aggregated by (returnflag, linestatus, shipdate).
			return &exec.HashAgg{
				In:      &exec.TableScan{Table: db.Lineitem},
				GroupBy: []string{"returnflag", "linestatus", "shipdate"},
				Aggs: []exec.Agg{
					{Fn: exec.AggSum, Col: "quantity", As: "sq"},
					{Fn: exec.AggSum, Col: "extendedprice", As: "sp"},
					{Fn: exec.AggCount, As: "cnt"},
				},
			}
		}, func(mv exec.Op) exec.Op {
			return &exec.HashAgg{
				In:      mv,
				GroupBy: []string{"returnflag", "linestatus"},
				Aggs: []exec.Agg{
					{Fn: exec.AggSum, Col: "sq", As: "sum_qty"},
					{Fn: exec.AggSum, Col: "sp", As: "sum_price"},
				},
			}
		}},
		{3, func(db *tpch.DB) exec.Op {
			// Pre-joined customer x orders x lineitem for BUILDING.
			cu := db.Customer.Schema
			j1 := &exec.HashJoin{
				Build: &exec.Filter{
					In:   &exec.TableScan{Table: db.Customer},
					Pred: func(t row.Tuple) bool { return t[cu.MustOrdinal("mktsegment")].(string) == "BUILDING" },
				},
				Probe:     &exec.TableScan{Table: db.Orders},
				BuildCols: []string{"custkey"},
				ProbeCols: []string{"custkey"},
			}
			j2 := &exec.HashJoin{
				Build:     j1,
				Probe:     &exec.TableScan{Table: db.Lineitem},
				BuildCols: []string{"orderkey"},
				ProbeCols: []string{"orderkey"},
			}
			return &exec.HashAgg{
				In:      j2,
				GroupBy: []string{"orderkey", "orderdate"},
				Aggs:    []exec.Agg{{Fn: exec.AggSum, Col: "extendedprice", As: "rev"}},
			}
		}, func(mv exec.Op) exec.Op {
			return &exec.TopN{In: mv, Specs: []exec.SortSpec{{Col: "rev", Desc: true}}, N: 10}
		}},
		{5, func(db *tpch.DB) exec.Op {
			j1 := &exec.HashJoin{
				Build:     &exec.TableScan{Table: db.Customer},
				Probe:     &exec.TableScan{Table: db.Orders},
				BuildCols: []string{"custkey"},
				ProbeCols: []string{"custkey"},
			}
			j2 := &exec.HashJoin{
				Build:     j1,
				Probe:     &exec.TableScan{Table: db.Lineitem},
				BuildCols: []string{"orderkey"},
				ProbeCols: []string{"orderkey"},
			}
			return &exec.HashAgg{
				In:      j2,
				GroupBy: []string{"nationkey", "orderdate"},
				Aggs:    []exec.Agg{{Fn: exec.AggSum, Col: "extendedprice", As: "rev"}},
			}
		}, func(mv exec.Op) exec.Op {
			return &exec.Sort{
				In: &exec.HashAgg{
					In:      mv,
					GroupBy: []string{"nationkey"},
					Aggs:    []exec.Agg{{Fn: exec.AggSum, Col: "rev", As: "revenue"}},
				},
				Specs: []exec.SortSpec{{Col: "revenue", Desc: true}},
			}
		}},
		{6, func(db *tpch.DB) exec.Op {
			return &exec.HashAgg{
				In:      &exec.TableScan{Table: db.Lineitem},
				GroupBy: []string{"shipdate"},
				Aggs:    []exec.Agg{{Fn: exec.AggSum, Col: "extendedprice", As: "rev"}},
			}
		}, func(mv exec.Op) exec.Op {
			sch := mv.Schema()
			return &exec.HashAgg{
				In: &exec.Filter{
					In: mv,
					Pred: func(t row.Tuple) bool {
						d := t[sch.MustOrdinal("shipdate")].(int64)
						return d >= 19940101 && d < 19950101
					},
				},
				Aggs: []exec.Agg{{Fn: exec.AggSum, Col: "rev", As: "revenue"}},
			}
		}},
		{12, func(db *tpch.DB) exec.Op {
			j := &exec.HashJoin{
				Build:     &exec.TableScan{Table: db.Orders},
				Probe:     &exec.TableScan{Table: db.Lineitem},
				BuildCols: []string{"orderkey"},
				ProbeCols: []string{"orderkey"},
			}
			return &exec.HashAgg{
				In:      j,
				GroupBy: []string{"shipmode", "receiptdate"},
				Aggs:    []exec.Agg{{Fn: exec.AggCount, As: "cnt"}},
			}
		}, func(mv exec.Op) exec.Op {
			sch := mv.Schema()
			return &exec.Sort{
				In: &exec.HashAgg{
					In: &exec.Filter{
						In: mv,
						Pred: func(t row.Tuple) bool {
							m := t[sch.MustOrdinal("shipmode")].(string)
							d := t[sch.MustOrdinal("receiptdate")].(int64)
							return (m == "MAIL" || m == "SHIP") && d >= 19940101 && d < 19950101
						},
					},
					GroupBy: []string{"shipmode"},
					Aggs:    []exec.Agg{{Fn: exec.AggSum, Col: "cnt", As: "line_count"}},
				},
				Specs: []exec.SortSpec{{Col: "shipmode"}},
			}
		}},
		{14, func(db *tpch.DB) exec.Op {
			j := &exec.HashJoin{
				Build:     &exec.TableScan{Table: db.Part},
				Probe:     &exec.TableScan{Table: db.Lineitem},
				BuildCols: []string{"partkey"},
				ProbeCols: []string{"partkey"},
			}
			return &exec.HashAgg{
				In:      j,
				GroupBy: []string{"shipdate"},
				Aggs:    []exec.Agg{{Fn: exec.AggSum, Col: "extendedprice", As: "rev"}},
			}
		}, func(mv exec.Op) exec.Op {
			sch := mv.Schema()
			return &exec.HashAgg{
				In: &exec.Filter{
					In: mv,
					Pred: func(t row.Tuple) bool {
						d := t[sch.MustOrdinal("shipdate")].(int64)
						return d >= 19950901 && d < 19951001
					},
				},
				Aggs: []exec.Agg{{Fn: exec.AggSum, Col: "rev", As: "revenue"}},
			}
		}},
		{19, func(db *tpch.DB) exec.Op {
			j := &exec.HashJoin{
				Build:     &exec.TableScan{Table: db.Part},
				Probe:     &exec.TableScan{Table: db.Lineitem},
				BuildCols: []string{"partkey"},
				ProbeCols: []string{"partkey"},
			}
			return &exec.HashAgg{
				In:      j,
				GroupBy: []string{"container", "quantity"},
				Aggs:    []exec.Agg{{Fn: exec.AggSum, Col: "extendedprice", As: "rev"}},
			}
		}, func(mv exec.Op) exec.Op {
			sch := mv.Schema()
			return &exec.HashAgg{
				In: &exec.Filter{
					In: mv,
					Pred: func(t row.Tuple) bool {
						s := t[sch.MustOrdinal("container")].(string)
						q := t[sch.MustOrdinal("quantity")].(float64)
						return (s == "SM CASE" || s == "MED BOX" || s == "LG JAR") && q >= 1 && q <= 30
					},
				},
				Aggs: []exec.Agg{{Fn: exec.AggSum, Col: "rev", As: "revenue"}},
			}
		}},
	}
}

// RunFig15aSemanticCacheMV reproduces Figure 15a: the latency of seven
// TPC-H queries answered from base tables (tuned indexes), from an MV on
// the SSD, and from an MV pinned in remote memory.
func RunFig15aSemanticCacheMV(seed int64, sf float64) ([]MVResult, float64, error) {
	var out []MVResult
	var remoteOverSSD float64
	prm := TPCHGeometry(false)
	if sf > 0 {
		prm.SF = sf
	}
	// The cache experiment runs on the Custom bed: MVs can be pinned
	// remotely; the SSD placement uses the same bed's SSD.
	err := RunInSim(seed, 2*time.Hour, func(p *sim.Proc) error {
		bed, db, err := newTPCHBed(p, DesignCustom, prm, tpch.Load)
		if err != nil {
			return err
		}
		cases := mvCases(db)
		var sumSSD, sumRemote float64
		for _, mc := range cases {
			res := MVResult{QueryID: mc.queryID}
			q := tpch.QueryByID(mc.queryID)

			// Base: the plain query (warm the pool once first).
			if err := q.Run(bed.Eng.NewCtx(p), db); err != nil {
				return err
			}
			t0 := p.Now()
			if err := q.Run(bed.Eng.NewCtx(p), db); err != nil {
				return err
			}
			res.BaseLatency = p.Now() - t0

			// Build the MV twice: once on SSD, once in remote memory.
			for _, place := range []string{"ssd", "remote"} {
				var cache *semcache.Cache
				if place == "remote" {
					cache = semcache.New(func(pp *sim.Proc, name string, size int64) (vfsFile, error) {
						f, err := bed.FS.Create(pp, fmt.Sprintf("mv-%d-%s", mc.queryID, name), size)
						if err != nil {
							return nil, err
						}
						return f, f.OpenConn(pp)
					}, bed.Eng.Log)
				} else {
					cache = semcache.New(func(pp *sim.Proc, name string, size int64) (vfsFile, error) {
						return newSSDFile(bed, fmt.Sprintf("mv-%d-%s", mc.queryID, name)), nil
					}, bed.Eng.Log)
				}
				entry, err := cache.Build(bed.Eng.NewCtx(p), fmt.Sprintf("mv-q%d-%s", mc.queryID, place),
					fmt.Sprintf("q%d", mc.queryID), mc.build(db), semcache.PolicyInvalidate)
				if err != nil {
					return err
				}
				res.MVBytes = entry.Bytes()
				ctx := bed.Eng.NewCtx(p)
				t0 := p.Now()
				mvScan, err := entry.Scan(ctx)
				if err != nil {
					return err
				}
				if _, err := exec.Run(ctx, mc.answer(mvScan)); err != nil {
					return err
				}
				lat := p.Now() - t0
				if place == "remote" {
					res.RemoteLat = lat
				} else {
					res.SSDLatency = lat
				}
			}
			sumSSD += res.SSDLatency.Seconds()
			sumRemote += res.RemoteLat.Seconds()
			out = append(out, res)
		}
		if sumRemote > 0 {
			remoteOverSSD = sumSSD / sumRemote
		}
		bed.Close(p)
		return nil
	})
	return out, remoteOverSSD, err
}

// Fig15Geometry returns the TPC-H scale factor of Figures 15a and 15b.
// The quick 0.02 is as low as it goes: at 0.01 the MVs get small enough
// that the SSD-placement improvement dips under 1.5x.
func Fig15Geometry(quick bool) float64 {
	if quick {
		return 0.02
	}
	return 0.05
}

// reportFig15a prints Figure 15a.
func reportFig15a(seed int64, quick bool, rep *Report) error {
	res, factor, err := RunFig15aSemanticCacheMV(seed, Fig15Geometry(quick))
	if err != nil {
		return err
	}
	rep.Println("Figure 15a: semantic cache (materialized views)")
	rep.Printf("  %6s %12s %12s %12s %10s %10s\n", "query", "base", "MV on SSD", "MV remote", "ssd x", "remote x")
	worst, worstSSD := res[0].ImprovementRemote(), res[0].ImprovementSSD()
	closest := float64(res[0].SSDLatency) / float64(res[0].RemoteLat)
	for _, r := range res {
		rep.Printf("  Q%-5d %12v %12v %12v %9.0fx %9.0fx\n", r.QueryID,
			r.BaseLatency.Round(time.Microsecond), r.SSDLatency.Round(time.Microsecond),
			r.RemoteLat.Round(time.Microsecond), r.ImprovementSSD(), r.ImprovementRemote())
		worst = min(worst, r.ImprovementRemote())
		worstSSD = min(worstSSD, r.ImprovementSSD())
		closest = min(closest, float64(r.SSDLatency)/float64(r.RemoteLat))
	}
	rep.Printf("  aggregate remote-over-SSD factor: %.1fx\n", factor)
	rep.Metric("queries", float64(len(res)))
	rep.Metric("min_mv_speedup", worst)
	rep.Metric("min_ssd_mv_speedup", worstSSD)
	rep.Metric("min_query_remote_over_ssd", closest)
	rep.Metric("remote_over_ssd", factor)
	return nil
}

// Fig15bPoint is one selectivity position of Figure 15b.
type Fig15bPoint struct {
	Selectivity float64
	INLJ        time.Duration
	HJ          time.Duration
}

// pinnedIndex models the non-clustered index of Figure 15b as a pinned
// structure in the semantic cache: a packed, sorted array of order rows
// in a file. A probe reads the one 8 KiB leaf holding the key (the inner
// levels are assumed RAM-resident, as in the paper's warmed system).
type pinnedIndex struct {
	file   vfsFile
	offset map[int64]int64 // orderkey -> byte offset of its leaf
}

func buildPinnedIndex(p *sim.Proc, db *tpch.DB, file vfsFile) (*pinnedIndex, error) {
	pairs, err := db.Orders.Clustered.ScanRange(p, nil, nil, 0)
	if err != nil {
		return nil, err
	}
	idx := &pinnedIndex{file: file, offset: make(map[int64]int64, len(pairs))}
	var off int64
	buf := make([]byte, 0, 8192)
	flush := func() error {
		if len(buf) == 0 {
			return nil
		}
		if err := file.WriteAt(p, buf, off); err != nil {
			return err
		}
		off += 8192
		buf = buf[:0]
		return nil
	}
	for _, pair := range pairs {
		if len(buf)+len(pair.Val) > 8192 {
			if err := flush(); err != nil {
				return nil, err
			}
		}
		t, err := row.Decode(db.Orders.Schema, pair.Val)
		if err != nil {
			return nil, err
		}
		idx.offset[t[0].(int64)] = off
		buf = append(buf, pair.Val...)
	}
	if err := flush(); err != nil {
		return nil, err
	}
	return idx, nil
}

// probe reads the leaf page holding the key.
func (ix *pinnedIndex) probe(p *sim.Proc, key int64) error {
	off, ok := ix.offset[key]
	if !ok {
		return nil
	}
	buf := make([]byte, 8192)
	return ix.file.ReadAt(p, buf, off)
}

// RunFig15bSeekVsScan reproduces Figure 15b with the adapted Q12: the
// filtered lineitem rows join to orders either via an index nested-loop
// over a non-clustered index pinned in the semantic cache — placed in
// remote memory or on the SSD — or via a hash join that scans the base
// table. The index placement moves the INLJ curve, and with it the
// INLJ/HJ crossover, which is the figure's argument for tier-aware
// optimizer costing.
func RunFig15bSeekVsScan(seed int64, sf float64) (remote, ssd []Fig15bPoint, err error) {
	sels := []float64{0.0002, 0.001, 0.005, 0.02, 0.10}
	prm := TPCHGeometry(false)
	if sf > 0 {
		prm.SF = sf
	}
	err = RunInSim(seed, 2*time.Hour, func(p *sim.Proc) error {
		bed, db, err := newTPCHBed(p, DesignCustom, prm, tpch.Load)
		if err != nil {
			return err
		}
		li := db.Lineitem.Schema
		okOrd := li.MustOrdinal("orderkey")
		// Warm the buffer tier so the outer scan cost is steady.
		for i := 0; i < 2; i++ {
			if _, err := exec.Run(bed.Eng.NewCtx(p), &exec.TableScan{Table: db.Lineitem}); err != nil {
				return err
			}
			if _, err := exec.Run(bed.Eng.NewCtx(p), &exec.TableScan{Table: db.Orders}); err != nil {
				return err
			}
		}
		// The two placements of the pinned index.
		remoteFileSize := int64(64 << 20)
		rf, err := bed.FS.Create(p, "nc-orders-remote", remoteFileSize)
		if err != nil {
			return err
		}
		if err := rf.OpenConn(p); err != nil {
			return err
		}
		remoteIdx, err := buildPinnedIndex(p, db, rf)
		if err != nil {
			return err
		}
		ssdIdx, err := buildPinnedIndex(p, db, newSSDFile(bed, "nc-orders-ssd"))
		if err != nil {
			return err
		}

		filtered := func(sel float64) exec.Op {
			cut := int64(sel * float64(int64(1)<<31))
			return &exec.Filter{
				In: &exec.TableScan{Table: db.Lineitem},
				Pred: func(t row.Tuple) bool {
					return int64(hash32(int(t[okOrd].(int64)))) < cut
				},
			}
		}
		runINLJ := func(ix *pinnedIndex, sel float64) (time.Duration, error) {
			ctx := bed.Eng.NewCtx(p)
			op := filtered(sel)
			t0 := p.Now()
			if err := op.Open(ctx); err != nil {
				return 0, err
			}
			for {
				t, ok, err := op.Next(ctx)
				if err != nil {
					return 0, err
				}
				if !ok {
					break
				}
				if err := ix.probe(p, t[okOrd].(int64)); err != nil {
					return 0, err
				}
			}
			ctx.FlushCPU()
			if err := op.Close(ctx); err != nil {
				return 0, err
			}
			return p.Now() - t0, nil
		}
		runHJ := func(sel float64) (time.Duration, error) {
			ctx := bed.Eng.NewCtx(p)
			t0 := p.Now()
			j := &exec.HashJoin{
				Build:     &exec.TableScan{Table: db.Orders},
				Probe:     filtered(sel),
				BuildCols: []string{"orderkey"},
				ProbeCols: []string{"orderkey"},
			}
			if _, err := exec.Run(ctx, j); err != nil {
				return 0, err
			}
			return p.Now() - t0, nil
		}
		for _, sel := range sels {
			inljR, err := runINLJ(remoteIdx, sel)
			if err != nil {
				return err
			}
			inljS, err := runINLJ(ssdIdx, sel)
			if err != nil {
				return err
			}
			hj, err := runHJ(sel)
			if err != nil {
				return err
			}
			remote = append(remote, Fig15bPoint{Selectivity: sel, INLJ: inljR, HJ: hj})
			ssd = append(ssd, Fig15bPoint{Selectivity: sel, INLJ: inljS, HJ: hj})
		}
		bed.Close(p)
		return nil
	})
	return remote, ssd, err
}

// crossover returns the highest selectivity at which INLJ still wins.
func crossover(pts []Fig15bPoint) float64 {
	last := 0.0
	for _, pt := range pts {
		if pt.INLJ < pt.HJ {
			last = pt.Selectivity
		}
	}
	return last
}

// reportFig15b prints Figure 15b.
func reportFig15b(seed int64, quick bool, rep *Report) error {
	remote, ssd, err := RunFig15bSeekVsScan(seed, Fig15Geometry(quick))
	if err != nil {
		return err
	}
	rep.Println("Figure 15b: INLJ vs HJ by selectivity")
	rep.Printf("  %12s | %12s %12s | %12s %12s\n", "selectivity", "INLJ(remote)", "HJ(remote)", "INLJ(ssd)", "HJ(ssd)")
	for i := range remote {
		rep.Printf("  %12.4f | %12v %12v | %12v %12v\n", remote[i].Selectivity,
			remote[i].INLJ.Round(time.Microsecond), remote[i].HJ.Round(time.Microsecond),
			ssd[i].INLJ.Round(time.Microsecond), ssd[i].HJ.Round(time.Microsecond))
	}
	rep.Metric("crossover_remote", crossover(remote))
	rep.Metric("crossover_ssd", crossover(ssd))
	lo, hi := remote[0], remote[len(remote)-1]
	rep.Metric("remote/inlj_over_hj_at_min_sel", float64(lo.INLJ)/float64(lo.HJ))
	rep.Metric("remote/inlj_over_hj_at_max_sel", float64(hi.INLJ)/float64(hi.HJ))
	return nil
}

// Fig26Point is one x-position of Figure 26.
type Fig26Point struct {
	DirtyBytes   int64
	RecoveryTime time.Duration
	Replayed     int
}

// RunFig26CacheRecovery reproduces Figure 26: time to rebuild a
// semantic-cache structure on another memory server by replaying the
// WAL, as a function of the data dirtied since the last checkpoint.
func RunFig26CacheRecovery(seed int64) ([]Fig26Point, error) {
	var out []Fig26Point
	// Dirty sizes scaled from the paper's 1..16 GB to 1..16 MB.
	for _, mb := range []int64{1, 2, 4, 8, 16} {
		mb := mb
		pt := Fig26Point{DirtyBytes: mb << 20}
		err := RunInSim(seed, 2*time.Hour, func(p *sim.Proc) error {
			cfg := DefaultBedConfig(DesignCustom)
			cfg.TempBytes = 8 << 20
			cfg.BPExtBytes = 8 << 20
			cfg.RemoteServers = 2
			cfg.MRBytes = 16 << 20
			bed, err := NewBed(p, cfg)
			if err != nil {
				return err
			}
			cache := bed.Eng.Cache
			cache.Headroom = 24 << 20 // room for the dirtied appends
			schema := row.NewSchema(
				row.Column{Name: "k", Type: row.Int64},
				row.Column{Name: "pad", Type: row.Bytes},
			)
			base := &exec.Values{Rows: []row.Tuple{{int64(0), make([]byte, 100)}}, Sch: schema}
			entry, err := cache.Build(bed.Eng.NewCtx(p), "ncindex", "sig", base, semcache.PolicySync)
			if err != nil {
				return err
			}
			cache.Checkpoint(entry)
			// Dirty updates past the checkpoint.
			rec := row.Tuple{int64(0), make([]byte, 1000)}
			n := int(pt.DirtyBytes / 1024)
			for i := 0; i < n; i++ {
				rec[0] = int64(i + 1)
				if err := cache.ApplyUpdate(p, entry, rec); err != nil {
					return err
				}
			}
			lsn := bed.Eng.Log.Append(txn.RecCommit, nil)
			if err := bed.Eng.Log.Commit(p, lsn); err != nil {
				return err
			}
			// The remote node holding the entry fails; recover onto the
			// other server from the checkpoint snapshot + WAL replay.
			snapshot := []row.Tuple{{int64(0), make([]byte, 100)}}
			t0 := p.Now()
			replayed, err := cache.Recover(p, entry, snapshot)
			if err != nil {
				return err
			}
			pt.RecoveryTime = p.Now() - t0
			pt.Replayed = replayed
			bed.Close(p)
			return nil
		})
		if err != nil {
			return nil, err
		}
		out = append(out, pt)
	}
	return out, nil
}

// reportFig26 prints Figure 26.
func reportFig26(seed int64, _ bool, rep *Report) error {
	pts, err := RunFig26CacheRecovery(seed)
	if err != nil {
		return err
	}
	rep.Println("Figure 26: semantic-cache recovery from the WAL")
	rep.Printf("  %10s %14s %10s\n", "dirty MB", "recovery", "records")
	for _, pt := range pts {
		rep.Printf("  %10d %14v %10d\n", pt.DirtyBytes>>20, pt.RecoveryTime.Round(time.Millisecond), pt.Replayed)
		rep.MetricDur(fmt.Sprintf("dirty%dmb/recovery_ms", pt.DirtyBytes>>20), pt.RecoveryTime)
	}
	return nil
}

// hash32 is the deterministic selector shared by the selectivity sweeps.
func hash32(i int) int {
	x := uint64(i)*2654435761 + 12345
	x ^= x >> 13
	x *= 1099511628211
	x ^= x >> 31
	return int(x & 0x7FFFFFFF)
}
