package exp

import (
	"fmt"
	"math"
	"time"

	"remotedb/internal/broker"
	"remotedb/internal/broker/metastore"
	"remotedb/internal/cluster"
	"remotedb/internal/core"
	"remotedb/internal/engine"
	"remotedb/internal/engine/page"
	"remotedb/internal/engine/prime"
	"remotedb/internal/hw/nic"
	"remotedb/internal/metrics"
	"remotedb/internal/rmem"
	"remotedb/internal/sim"
	"remotedb/internal/vfs"
	"remotedb/internal/workload"
)

// Fig12Point is one x-position of Figure 12.
type Fig12Point struct {
	BPExtBytes int64
	Servers    int
	Throughput float64
	MeanLat    time.Duration
}

// Fig12Params tunes the sweep geometry.
type Fig12Params struct {
	SizesMB []int64 // BPExt sizes swept
	Rows    int
	Measure time.Duration
}

// Fig12Geometry returns the sweep, or with quick its endpoints and one
// midpoint on a smaller table: the growth and the single-vs-multi
// comparison survive, the sweep doesn't.
func Fig12Geometry(quick bool) Fig12Params {
	if quick {
		return Fig12Params{SizesMB: []int64{32, 96, 144}, Rows: 300000, Measure: 400 * time.Millisecond}
	}
	return Fig12Params{SizesMB: []int64{32, 64, 96, 128, 144}, Rows: 500000, Measure: 700 * time.Millisecond}
}

// RunFig12BPExtSize reproduces Figure 12: read-only RangeScan throughput
// and latency as the BPExt grows, with the remote memory on one server
// (multi=false) or spread over several (multi=true, one more server per
// 16 MB as in the paper's 16 GB increments).
func RunFig12BPExtSize(seed int64, multi bool, fprm Fig12Params) ([]Fig12Point, error) {
	var out []Fig12Point
	for _, mb := range fprm.SizesMB {
		ext := mb << 20
		servers := 1
		if multi {
			servers = int(ext / (16 << 20))
			if servers < 1 {
				servers = 1
			}
		}
		prm := DefaultRangeScanParams()
		prm.BPExtBytes = ext
		prm.RemoteServers = servers
		prm.Rows = fprm.Rows
		prm.Measure = fprm.Measure
		r, err := RunRangeScan(seed, DesignCustom, prm)
		if err != nil {
			return nil, err
		}
		out = append(out, Fig12Point{
			BPExtBytes: ext,
			Servers:    servers,
			Throughput: r.Throughput,
			MeanLat:    r.MeanLat,
		})
	}
	return out, nil
}

// reportFig12 prints Figure 12. It records the single-server endpoints
// and the largest deviation of a multi-server point from the
// single-server one at the same size.
func reportFig12(seed int64, quick bool, rep *Report) error {
	var single []Fig12Point
	for _, multi := range []bool{false, true} {
		pts, err := RunFig12BPExtSize(seed, multi, Fig12Geometry(quick))
		if err != nil {
			return err
		}
		label := "one memory server"
		if multi {
			label = "multiple memory servers"
		}
		rep.Printf("Figure 12 (%s):\n", label)
		rep.Printf("  %10s %8s %14s %12s\n", "bpext MB", "servers", "queries/s", "mean lat")
		for _, pt := range pts {
			rep.Printf("  %10d %8d %14.0f %12v\n", pt.BPExtBytes>>20, pt.Servers, pt.Throughput, pt.MeanLat.Round(time.Microsecond))
		}
		if !multi {
			single = pts
			for _, pt := range []Fig12Point{pts[0], pts[len(pts)-1]} {
				rep.Metric(fmt.Sprintf("ext%dmb/queries_per_sec", pt.BPExtBytes>>20), pt.Throughput)
			}
			continue
		}
		var dev float64
		for i, pt := range pts {
			dev = max(dev, math.Abs(pt.Throughput/single[i].Throughput-1))
		}
		rep.Metric("multi_vs_single_max_dev", dev)
	}
	return nil
}

// Fig13Result is the remote-server impact experiment.
type Fig13Result struct {
	Mode       string // "Default", "RDMA", "TCP"
	Throughput float64
	MeanLat    time.Duration
	P99Lat     time.Duration
}

// Fig13Params tunes SB's workload and SA's traffic geometry.
type Fig13Params struct {
	SBRows    int
	SBClients int
	Warmup    time.Duration
	Measure   time.Duration
	Traffic   time.Duration // how long SA's remote I/O runs (0 = Warmup+Measure)
}

// Fig13Geometry returns SB's workload, or with quick fewer clients and
// shorter windows: SB stays CPU-saturated (40 clients x 2ms query CPU),
// so the dent ratios survive.
func Fig13Geometry(quick bool) Fig13Params {
	if quick {
		return Fig13Params{SBRows: 100000, SBClients: 40, Warmup: 200 * time.Millisecond, Measure: 800 * time.Millisecond}
	}
	return Fig13Params{SBRows: 100000, SBClients: 80, Warmup: 500 * time.Millisecond, Measure: 2 * time.Second}
}

// RunFig13RemoteImpact reproduces Figure 13: server SB runs a CPU-bound
// read-only RangeScan from its own memory while server SA's BPExt
// traffic lands on SB's spare memory via RDMA or TCP; reported is SB's
// workload.
func RunFig13RemoteImpact(seed int64, prm Fig13Params) ([]Fig13Result, error) {
	if prm.Traffic == 0 {
		prm.Traffic = prm.Warmup + prm.Measure
	}
	var out []Fig13Result
	for _, mode := range []string{"Default", "RDMA", "TCP"} {
		mode := mode
		res := Fig13Result{Mode: mode}
		err := RunInSim(seed, 2*time.Hour, func(p *sim.Proc) error {
			k := p.Kernel()
			// SB: large memory, the whole dataset cached, long scans =>
			// CPU-bound (the paper sets range=10000 and 128 GB memory).
			sb := cluster.NewServer(k, "SB", serverConfig(20))
			sbEng, err := engine.New(p, sb, engine.Files{
				Data: vfs.NewDeviceFile("data", sb.HDD),
				Log:  vfs.NewDeviceFile("log", sb.HDD),
				Temp: vfs.NewDeviceFile("temp", sb.SSD),
			}, engine.DefaultConfig(16384)) // 128 MB pool
			if err != nil {
				return err
			}
			sbCfg := workload.DefaultRangeScan()
			sbCfg.Rows = prm.SBRows
			sbCfg.Range = 10000
			sbCfg.Clients = prm.SBClients
			sbCfg.QueryCPU = 2 * time.Millisecond
			sbW, err := workload.NewRangeScan(p, sbEng, sbCfg)
			if err != nil {
				return err
			}

			// SA: a DB server whose BPExt lives on SB's memory.
			if mode != "Default" {
				store := metastore.New(k, 10*time.Microsecond)
				b := broker.NewCluster(p, store, 1, broker.DefaultConfig())
				if _, err := b.AddProxy(p, sb, 8<<20, 20); err != nil {
					return err
				}
				sa := cluster.NewServer(k, "SA", serverConfig(20))
				ccfg := rmem.DefaultClientConfig()
				proto := nic.ProtoRDMA
				if mode == "TCP" {
					proto = nic.ProtoSMB
					ccfg.Mode = rmem.AccessAsync
				}
				client := rmem.NewClient(p, sa, ccfg)
				fscfg := core.DefaultConfig()
				fscfg.Protocol = proto
				fs := core.NewFS(p, b, client, fscfg)
				f, err := fs.Create(p, "sa-bpext", 128<<20)
				if err != nil {
					return err
				}
				if err := f.OpenConn(p); err != nil {
					return err
				}
				// SA's BPExt traffic: drive the paper's measured access
				// rate against SB's memory for the whole run.
				k.Go("sa-traffic", func(tp *sim.Proc) {
					stop := tp.Now() + prm.Traffic
					wg := sim.NewWaitGroup(k)
					wg.Add(20)
					for i := 0; i < 20; i++ {
						k.Go("sa-io", func(ip *sim.Proc) {
							defer wg.Done()
							buf := make([]byte, 8192)
							for ip.Now() < stop {
								off := ip.Rand().Int63n((128<<20)/8192) * 8192
								if err := f.ReadAt(ip, buf, off); err != nil {
									return
								}
							}
						})
					}
					wg.Wait(tp)
				})
			}

			r := sbW.Run(p, prm.Warmup, prm.Measure)
			res.Throughput = r.Throughput()
			res.MeanLat = r.Latency.Mean()
			res.P99Lat = r.Latency.P99()
			sbEng.Shutdown()
			return nil
		})
		if err != nil {
			return nil, err
		}
		out = append(out, res)
	}
	return out, nil
}

// reportFig13 prints Figure 13.
func reportFig13(seed int64, quick bool, rep *Report) error {
	res, err := RunFig13RemoteImpact(seed, Fig13Geometry(quick))
	if err != nil {
		return err
	}
	rep.Println("Figure 13: impact on the remote server's own workload")
	rep.Printf("  %-10s %14s %12s %12s\n", "mode", "queries/s", "mean lat", "p99 lat")
	thr := make(map[string]float64)
	for _, r := range res {
		rep.Printf("  %-10s %14.0f %12v %12v\n", r.Mode, r.Throughput,
			r.MeanLat.Round(time.Millisecond), r.P99Lat.Round(time.Millisecond))
		thr[r.Mode] = r.Throughput
		rep.Metric(r.Mode+"/queries_per_sec", r.Throughput)
		rep.MetricDur(r.Mode+"/p99_lat_ms", r.P99Lat)
	}
	rep.Metric("tcp_overhead_pct", 100*(1-thr["TCP"]/thr["Default"]))
	return nil
}

// Fig16Result carries the priming experiment.
type Fig16Result struct {
	BPBytes       int64
	WarmupTime    time.Duration // time for the workload to warm the pool
	SerializeTime time.Duration
	TransferTime  time.Duration
	PrimeTime     time.Duration // serialize + transfer + install
	ColdP95       time.Duration // p95 of the cold instance's first queries
	PrimedP95     time.Duration // p95 of the primed instance's first queries
	PagesPrimed   int
}

// Fig16Params tunes the priming experiment geometry.
type Fig16Params struct {
	BPSizesMB []int64
	Rows      int
	Clients   int
}

// Fig16Geometry returns the pool-size sweep, or with quick two pools
// over a ~30 MB database (the 25% hotspot still overflows the pool).
func Fig16Geometry(quick bool) Fig16Params {
	if quick {
		return Fig16Params{BPSizesMB: []int64{10, 20}, Rows: 125000, Clients: 20}
	}
	return Fig16Params{BPSizesMB: []int64{10, 15, 20, 25}, Rows: 250000, Clients: 20}
}

// RunFig16Priming reproduces Figure 16: the cost of proactively priming
// a new primary's buffer pool versus warming it through the workload,
// and the tail-latency effect, for several buffer-pool sizes. Warm-up
// time is measured as the time for a cold instance's throughput to
// plateau (two consecutive 250 ms windows, each within ±8% of the one
// before), the operational notion
// behind Figure 16a. The tail is the p95 of a fixed number of queries
// per client (firstQueriesP95).
func RunFig16Priming(seed int64, prm Fig16Params) ([]Fig16Result, error) {
	var out []Fig16Result
	for _, mb := range prm.BPSizesMB {
		res := Fig16Result{BPBytes: mb << 20}
		err := RunInSim(seed, 2*time.Hour, func(p *sim.Proc) error {
			k := p.Kernel()
			frames := int((mb << 20) / page.Size)
			hot := &workload.Hotspot{HotFrac: 0.25, HotAccess: 0.99}

			mkEngine := func(name string) (*cluster.Server, *engine.Engine, error) {
				s := cluster.NewServer(k, name, serverConfig(20))
				cfg := engine.DefaultConfig(frames)
				// Figure 16 measures how a cold pool penalizes the workload
				// until primed; scan readahead would mask exactly that
				// penalty, so these engines run without it.
				cfg.Buffer.Readahead = 0
				eng, err := engine.New(p, s, engine.Files{
					Data: vfs.NewDeviceFile("data", s.HDD),
					Log:  vfs.NewDeviceFile("log", s.HDD),
					Temp: vfs.NewDeviceFile("temp", s.SSD),
				}, cfg)
				return s, eng, err
			}
			wcfg := workload.DefaultRangeScan()
			wcfg.Rows = prm.Rows // ~60 MB database at default (Section 6.5's ~100 GB, scaled)
			wcfg.Range = 2000
			wcfg.Clients = prm.Clients
			wcfg.Hotspot = hot
			wcfg.QueryCPU = 200 * time.Microsecond

			// warmUp drives the workload in windows until throughput
			// plateaus; returns the elapsed time.
			warmUp := func(w *workload.RangeScan) time.Duration {
				start := p.Now()
				var prev float64
				stable := 0
				for p.Now()-start < 45*time.Second {
					r := w.Run(p, 0, 250*time.Millisecond)
					thr := r.Throughput()
					if prev > 0 && thr < prev*1.08 && thr > prev*0.92 {
						stable++
						if stable >= 2 {
							break
						}
					} else {
						stable = 0
					}
					prev = thr
				}
				return p.Now() - start
			}

			// S1: the old primary. Warm it through the workload and
			// record how long that takes (Figure 16a's "workload" bar).
			s1, eng1, err := mkEngine("S1")
			if err != nil {
				return err
			}
			w1, err := workload.NewRangeScan(p, eng1, wcfg)
			if err != nil {
				return err
			}
			res.WarmupTime = warmUp(w1)

			// S2: a cold new primary (its pool holds the table tail from
			// loading, useless for the hotspot). Measure cold tail latency.
			_, eng2, err := mkEngine("S2")
			if err != nil {
				return err
			}
			w2, err := workload.NewRangeScan(p, eng2, wcfg)
			if err != nil {
				return err
			}
			// Tail latency during the warm-up phase (the paper measures
			// the cold scan latencies while the pool warms, Figure 16b).
			if res.ColdP95, err = firstQueriesP95(p, w2, fig16Queries); err != nil {
				return err
			}

			// S3: a cold instance primed from S1 over RDMA.
			s3, eng3, err := mkEngine("S3")
			if err != nil {
				return err
			}
			w3, err := workload.NewRangeScan(p, eng3, wcfg)
			if err != nil {
				return err
			}
			st, err := prime.Prime(p, s1, s3, eng1.BP, eng3.BP)
			if err != nil {
				return err
			}
			res.SerializeTime = st.SerializeTime
			res.TransferTime = st.TransferTime
			res.PrimeTime = st.Total()
			res.PagesPrimed = st.Pages
			if res.PrimedP95, err = firstQueriesP95(p, w3, fig16Queries); err != nil {
				return err
			}
			eng1.Shutdown()
			eng2.Shutdown()
			eng3.Shutdown()
			_ = s3
			return nil
		})
		if err != nil {
			return nil, err
		}
		out = append(out, res)
	}
	return out, nil
}

// fig16Queries is how many queries each client runs for the tail figures.
const fig16Queries = 10

// firstQueriesP95 runs n queries on each of w's clients, from the pool as
// it stands, and returns the p95 latency over all of them. The work is
// fixed, so every query counts: a window would leave out the slowest
// queries, those still running when it closes.
func firstQueriesP95(p *sim.Proc, w *workload.RangeScan, n int) (time.Duration, error) {
	k := p.Kernel()
	lat := metrics.NewHistogram()
	keys := int64(w.Cfg.Rows - w.Cfg.Range)
	var firstErr error
	wg := sim.NewWaitGroup(k)
	wg.Add(w.Cfg.Clients)
	for i := 0; i < w.Cfg.Clients; i++ {
		k.Go("client", func(wp *sim.Proc) {
			defer wg.Done()
			for q := 0; q < n; q++ {
				t0 := wp.Now()
				if err := w.QueryOnce(wp, w.Cfg.Hotspot.Pick(wp, keys), false); err != nil && firstErr == nil {
					firstErr = err
				}
				lat.Observe(wp.Now() - t0)
			}
		})
	}
	wg.Wait(p)
	return lat.P95(), firstErr
}

// reportFig16 prints Figure 16.
func reportFig16(seed int64, quick bool, rep *Report) error {
	res, err := RunFig16Priming(seed, Fig16Geometry(quick))
	if err != nil {
		return err
	}
	rep.Println("Figure 16: buffer-pool priming")
	rep.Printf("  %8s %12s %12s %12s %12s %12s\n", "BP MB", "warm-up", "prime", "transfer", "cold p95", "primed p95")
	for _, r := range res {
		rep.Printf("  %8d %12v %12v %12v %12v %12v\n", r.BPBytes>>20,
			r.WarmupTime.Round(time.Millisecond), r.PrimeTime.Round(time.Millisecond),
			r.TransferTime.Round(time.Millisecond),
			r.ColdP95.Round(time.Millisecond), r.PrimedP95.Round(time.Millisecond))
		key := fmt.Sprintf("bp%dmb", r.BPBytes>>20)
		rep.Metric(key+"/warmup_over_prime", float64(r.WarmupTime)/float64(r.PrimeTime))
		rep.Metric(key+"/tail_improvement", float64(r.ColdP95)/float64(r.PrimedP95))
	}
	return nil
}

// Fig24Point is one x-position of Figure 24 (local-memory sweep).
type Fig24Point struct {
	LocalMemBytes int64
	Design        Design
	Throughput    float64
	MeanLat       time.Duration
}

// Fig24Params tunes the local-memory sweep.
type Fig24Params struct {
	MemsMB  []int64
	Measure time.Duration
}

// Fig24Geometry returns the sweep, or with quick only the 16 MB and
// 128 MB endpoints.
func Fig24Geometry(quick bool) Fig24Params {
	if quick {
		return Fig24Params{MemsMB: []int64{16, 128}, Measure: 400 * time.Millisecond}
	}
	return Fig24Params{MemsMB: []int64{16, 32, 64, 96, 128}, Measure: 700 * time.Millisecond}
}

// RunFig24LocalMemorySweep reproduces Figure 24: Custom vs HDD+SSD as
// local memory grows from 16 MB to 128 MB (paper: GB).
func RunFig24LocalMemorySweep(seed int64, fprm Fig24Params) ([]Fig24Point, error) {
	var out []Fig24Point
	for _, mb := range fprm.MemsMB {
		for _, d := range []Design{DesignHDDSSD, DesignCustom} {
			prm := DefaultRangeScanParams()
			prm.LocalMemBytes = mb << 20
			prm.Measure = fprm.Measure
			r, err := RunRangeScan(seed, d, prm)
			if err != nil {
				return nil, err
			}
			out = append(out, Fig24Point{
				LocalMemBytes: mb << 20,
				Design:        d,
				Throughput:    r.Throughput,
				MeanLat:       r.MeanLat,
			})
		}
	}
	return out, nil
}

// reportFig24 prints Figure 24.
func reportFig24(seed int64, quick bool, rep *Report) error {
	pts, err := RunFig24LocalMemorySweep(seed, Fig24Geometry(quick))
	if err != nil {
		return err
	}
	rep.Println("Figure 24: local memory sweep (RangeScan)")
	rep.Printf("  %10s %-22s %14s %12s\n", "local MB", "design", "queries/s", "mean lat")
	var base float64 // HDD+SSD precedes Custom at each size
	for _, pt := range pts {
		rep.Printf("  %10d %-22s %14.0f %12v\n", pt.LocalMemBytes>>20, pt.Design, pt.Throughput, pt.MeanLat.Round(time.Microsecond))
		if pt.Design == DesignHDDSSD {
			base = pt.Throughput
		} else {
			rep.Metric(fmt.Sprintf("local%dmb/speedup", pt.LocalMemBytes>>20), pt.Throughput/base)
		}
	}
	return nil
}

// Fig25Point is one x-position of Figure 25.
type Fig25Point struct {
	DBServers  int
	Throughput float64 // aggregate queries/sec
	MeanLat    time.Duration
}

// Fig25Params tunes the multi-DB aggregate experiment.
type Fig25Params struct {
	DBCounts []int
	Rows     int
	Clients  int
	Warmup   time.Duration
	Measure  time.Duration
}

// Fig25Geometry returns the 1..8 server sweep, with quick on a smaller
// table, fewer clients and shorter windows.
func Fig25Geometry(quick bool) Fig25Params {
	if quick {
		return Fig25Params{DBCounts: []int{1, 2, 4, 8}, Rows: 80000, Clients: 20, Warmup: 150 * time.Millisecond, Measure: 500 * time.Millisecond}
	}
	return Fig25Params{DBCounts: []int{1, 2, 4, 8}, Rows: 125000, Clients: 40, Warmup: 300 * time.Millisecond, Measure: time.Second}
}

// RunFig25MultiDBRangeScan reproduces Figure 25: 1..8 database servers
// each running RangeScan with its BPExt on one shared memory server.
func RunFig25MultiDBRangeScan(seed int64, prm Fig25Params) ([]Fig25Point, error) {
	var out []Fig25Point
	for _, n := range prm.DBCounts {
		pt := Fig25Point{DBServers: n}
		err := RunInSim(seed, 2*time.Hour, func(p *sim.Proc) error {
			k := p.Kernel()
			store := metastore.New(k, 10*time.Microsecond)
			b := broker.NewCluster(p, store, 1, broker.DefaultConfig())
			mem := cluster.NewServer(k, "mem1", serverConfig(20))
			// 8 DBs x 30 MB each (the paper's smaller database).
			if _, err := b.AddProxy(p, mem, 8<<20, 40); err != nil {
				return err
			}
			var agg int64
			var latSum time.Duration
			var latN int64
			wg := sim.NewWaitGroup(k)
			wg.Add(n)
			for i := 0; i < n; i++ {
				db := cluster.NewServer(k, fmt.Sprintf("db%d", i+1), serverConfig(20))
				client := rmem.NewClient(p, db, rmem.DefaultClientConfig())
				fs := core.NewFS(p, b, client, core.DefaultConfig())
				ext, err := fs.Create(p, fmt.Sprintf("bpext-%d", i), 30<<20)
				if err != nil {
					return err
				}
				if err := ext.OpenConn(p); err != nil {
					return err
				}
				cfg := engine.DefaultConfig(896) // ~7 MB local
				cfg.BPExtSlots = int((30 << 20) / page.Size)
				eng, err := engine.New(p, db, engine.Files{
					Data:  vfs.NewDeviceFile("data", db.HDD),
					Log:   vfs.NewDeviceFile("log", db.HDD),
					Temp:  vfs.NewDeviceFile("temp", db.SSD),
					BPExt: ext,
				}, cfg)
				if err != nil {
					return err
				}
				wcfg := workload.DefaultRangeScan()
				wcfg.Rows = prm.Rows
				wcfg.Clients = prm.Clients
				w, err := workload.NewRangeScan(p, eng, wcfg)
				if err != nil {
					return err
				}
				k.Go("dbrun", func(dp *sim.Proc) {
					defer wg.Done()
					r := w.Run(dp, prm.Warmup, prm.Measure)
					agg += r.Queries
					latSum += time.Duration(r.Latency.Mean().Nanoseconds() * r.Queries)
					latN += r.Queries
					eng.Shutdown()
				})
			}
			wg.Wait(p)
			pt.Throughput = float64(agg) / prm.Measure.Seconds()
			if latN > 0 {
				pt.MeanLat = latSum / time.Duration(latN)
			}
			return nil
		})
		if err != nil {
			return nil, err
		}
		out = append(out, pt)
	}
	return out, nil
}

// reportFig25 prints Figure 25.
func reportFig25(seed int64, quick bool, rep *Report) error {
	pts, err := RunFig25MultiDBRangeScan(seed, Fig25Geometry(quick))
	if err != nil {
		return err
	}
	rep.Println("Figure 25: N database servers sharing one memory server")
	rep.Printf("  %8s %14s %12s\n", "servers", "agg q/s", "mean lat")
	for _, pt := range pts {
		rep.Printf("  %8d %14.0f %12v\n", pt.DBServers, pt.Throughput, pt.MeanLat.Round(time.Microsecond))
	}
	for _, pt := range pts[1:] {
		rep.Metric(fmt.Sprintf("dbs%d/scaling", pt.DBServers), pt.Throughput/pts[0].Throughput)
	}
	return nil
}
