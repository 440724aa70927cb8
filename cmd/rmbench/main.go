// Command rmbench regenerates the tables and figures of the paper's
// evaluation (Sections 6 and Appendix B). Each subcommand prints the
// rows or series the paper reports; see EXPERIMENTS.md for the mapping
// and the paper-vs-measured comparison.
//
// Usage:
//
//	rmbench <experiment> [-seed N] [-quick]
//
// 'rmbench list' prints the experiments ('all' runs every one).
//
// With -json each experiment also writes BENCH_<experiment>.json:
// experiment name, seed, wall-clock, and a flat metric map (throughput,
// latency percentiles, fault counters).
package main

import (
	"flag"
	"fmt"
	"os"
	"sort"
	"strings"
	"time"

	"remotedb/internal/cluster"
	"remotedb/internal/engine/loader"
	"remotedb/internal/exp"
	"remotedb/internal/sim"
)

var (
	seed  = flag.Int64("seed", 1, "simulation seed")
	quick = flag.Bool("quick", false, "reduced sizes for a fast pass")
)

func main() {
	flag.Usage = func() {
		fmt.Fprintf(os.Stderr, "usage: rmbench <experiment> [flags]\nrun 'rmbench list' for the experiments\n")
		flag.PrintDefaults()
	}
	flag.Parse()
	if flag.NArg() < 1 {
		flag.Usage()
		os.Exit(2)
	}
	name := flag.Arg(0)
	start := time.Now()
	if err := run(name); err != nil {
		fmt.Fprintf(os.Stderr, "rmbench %s: %v\n", name, err)
		os.Exit(1)
	}
	fmt.Printf("\n[%s done in %v]\n", name, time.Since(start).Round(time.Millisecond))
}

// experiments is the one table of what rmbench can run: dispatch, "all"
// (in this order, under each entry's first name) and "list" read it.
var experiments = []struct {
	names []string
	about string
	run   func() error
}{
	{[]string{"tables"}, "Table 4 workload summary (scaled) and Table 5 designs", tables},
	{[]string{"fig3", "fig4"}, "I/O micro-benchmark throughput and latency", fig34},
	{[]string{"fig5"}, "one DB server, 1..8 memory servers", fig5},
	{[]string{"fig6"}, "1..8 DB servers, one memory server", fig6},
	{[]string{"fig7", "fig8"}, "RangeScan with 20% updates (throughput / latency)", func() error { return rangeScan(0.20) }},
	{[]string{"fig9", "fig10"}, "RangeScan read-only", func() error { return rangeScan(0) }},
	{[]string{"fig11"}, "RangeScan drill-down (I/O, CPU, latency)", fig11},
	{[]string{"fig12"}, "BPExt size sweep (single and multiple memory servers)", fig12},
	{[]string{"fig13"}, "impact of remote access on the memory server", fig13},
	{[]string{"fig14"}, "Hash+Sort latency per design", fig14},
	{[]string{"fig15a"}, "semantic cache: MV placement", fig15a},
	{[]string{"fig15b"}, "semantic cache: seek vs scan crossover", fig15b},
	{[]string{"fig16"}, "buffer-pool priming", fig16},
	{[]string{"fig18", "fig19"}, "TPC-H throughput + latency histogram", tpch},
	{[]string{"fig20", "fig21"}, "TPC-DS throughput + latency histogram", tpcds},
	{[]string{"fig22", "fig23"}, "TPC-C throughput + latency", tpcc},
	{[]string{"fig24"}, "local memory sweep", fig24},
	{[]string{"fig25"}, "multiple DB servers RangeScan", fig25},
	{[]string{"fig26"}, "semantic cache recovery", fig26},
	{[]string{"fig27"}, "parallel data loading", fig27},
	{[]string{"ablation"}, "Table 1 design-choice ablations", ablation},
	{[]string{"faults"}, "throughput through a revocation storm + recovery", faults},
	{[]string{"scrub"}, "silent-corruption storm + K=2 revocation storm", scrub},
	{[]string{"plancache"}, "repeated parameterized query: plan cache on vs off", plancache},
	{[]string{"parscan"}, "parallel scan over remote memory: DOP sweep", parscan},
	{[]string{"iobatch"}, "vectored I/O: batched vs per-page transfers, burst priming, eviction storm with batched I/O off vs on", iobatch},
	{[]string{"evict"}, "eviction policy A/B: clock sweep vs cost-aware GDSF", evict},
	{[]string{"pushdown"}, "donor-side operator pushdown vs fetch-all across selectivities, the optimizer's placement choice, and a pushed scan through a corruption + revocation storm", pushdown},
	{[]string{"cluster"}, "cluster-scale broker: 200+ DB servers and donors on a sharded broker with batched heartbeats, through a diurnal reclamation wave", clusterBench},
	{[]string{"chaos"}, "tail-tolerance chaos harness on the cluster bed: slow-donor injection (hedging A/B), a reclamation storm under deadline budgets + health scoring, and a flapping donor through the breaker's recovery arc", chaosBench},
}

// run executes one experiment (or "all", or "list"), recording metrics
// and writing BENCH_<name>.json when -json is set.
func run(name string) error {
	switch name {
	case "all":
		for _, e := range experiments {
			fmt.Printf("\n===== %s =====\n", e.names[0])
			if err := run(e.names[0]); err != nil {
				return fmt.Errorf("%s: %w", e.names[0], err)
			}
		}
		return nil
	case "list":
		for _, e := range experiments {
			fmt.Printf("  %-12s %s\n", strings.Join(e.names, " "), e.about)
		}
		return nil
	}
	benchReset()
	start := time.Now()
	if err := dispatch(name); err != nil {
		return err
	}
	if *jsonOut {
		return benchWrite(name, start)
	}
	return nil
}

func dispatch(name string) error {
	for _, e := range experiments {
		for _, n := range e.names {
			if n == name {
				return e.run()
			}
		}
	}
	return fmt.Errorf("unknown experiment %q", name)
}

func iobatch() error {
	fmt.Println("Vectored I/O: per-page vs doorbell-batched transfers, burst")
	fmt.Println("priming, and an eviction storm with batched I/O off vs on")
	prm := exp.DefaultIOBatchParams()
	if *quick {
		prm.Pages = 128
		prm.PrimePages = 256
		prm.StormPages = 192
		prm.Frames = 32
	}
	res, err := exp.RunIOBatch(*seed, prm)
	if err != nil {
		return err
	}
	fmt.Printf("  %s\n", res)
	metric("scalar_round_trips", float64(res.ScalarRT))
	metric("batched_round_trips", float64(res.BatchedRT))
	metric("rt_reduction", res.RTReduction)
	metric("read_speedup", res.ReadSpeedup)
	metric("write_speedup", res.WriteSpeedup)
	metricDur("prime_scalar_ms", res.PrimeScalar)
	metricDur("prime_burst_ms", res.PrimeBurst)
	metric("prime_speedup", res.PrimeSpeedup)
	metricDur("storm_scalar_ms", res.StormScalar)
	metricDur("storm_batched_ms", res.StormBatched)
	metric("storm_scalar_round_trips", float64(res.StormScalarRT))
	metric("storm_batched_round_trips", float64(res.StormBatchedRT))
	metric("storm_speedup", res.StormSpeedup)
	metric("staging_waits", float64(res.StagingWaits))
	metric("staging_wait_ms", res.StagingWaitMS)
	metric("staging_highwater", float64(res.StagingHighWater))
	return nil
}

func evict() error {
	fmt.Println("Eviction policy A/B: clock sweep vs cost-aware GDSF under a")
	fmt.Println("Zipf working set with 10% writes")
	prm := exp.DefaultEvictParams()
	if *quick {
		prm.Frames = 128
		prm.Pages = 1024
		prm.Accesses = 5000
	}
	res, err := exp.RunEvict(*seed, prm)
	if err != nil {
		return err
	}
	fmt.Printf("  %s\n  %s\n", res.Clock, res.GDSF)
	fmt.Printf("  GDSF: %+.1f hit points, %.2fx stall speedup\n", res.HitDelta, res.Speedup)
	fmt.Printf("  readahead under short bursts:\n    %s\n    %s\n", res.FixedRA, res.AdaptiveRA)
	fmt.Printf("  adaptive window: %+.1f waste points\n", -res.WasteDrop)
	metric("clock_hit_rate", res.Clock.HitRate)
	metric("gdsf_hit_rate", res.GDSF.HitRate)
	metric("clock_disk_reads", float64(res.Clock.DiskReads))
	metric("gdsf_disk_reads", float64(res.GDSF.DiskReads))
	metricDur("clock_elapsed_ms", res.Clock.Elapsed)
	metricDur("gdsf_elapsed_ms", res.GDSF.Elapsed)
	metric("clock_writeback_bytes", float64(res.Clock.WriteBackBytes))
	metric("gdsf_writeback_bytes", float64(res.GDSF.WriteBackBytes))
	metric("hit_delta_points", res.HitDelta)
	metric("speedup", res.Speedup)
	metric("fixed_ra_waste_ratio", res.FixedRA.WasteRatio)
	metric("adaptive_ra_waste_ratio", res.AdaptiveRA.WasteRatio)
	metric("ra_waste_drop_points", res.WasteDrop)
	if res.AdaptiveRA.WasteRatio >= res.FixedRA.WasteRatio {
		return fmt.Errorf("adaptive readahead wasted %.1f%% of prefetches vs %.1f%% fixed; the window did not shrink",
			res.AdaptiveRA.WasteRatio*100, res.FixedRA.WasteRatio*100)
	}
	if res.AdaptiveRA.Hits == 0 {
		return fmt.Errorf("adaptive readahead never produced a prefetch hit; the window collapsed")
	}
	return nil
}

func clusterBench() error {
	fmt.Println("Cluster-scale broker: sharded lease space, batched heartbeats,")
	fmt.Println("and a diurnal reclamation wave over 200+ participants")
	prm := exp.DefaultClusterParams()
	if *quick {
		prm.Measure = 80 * time.Millisecond
	}
	res, err := exp.RunCluster(*seed, prm)
	if err != nil {
		return err
	}
	fmt.Printf("  %d broker shards, %d donors\n", res.Shards, res.Donors)
	fmt.Printf("  %8s %14s %14s %12s\n", "holders", "participants", "agg MB/s", "mean lat")
	for _, pt := range res.Scale {
		fmt.Printf("  %8d %14d %14.0f %12v\n", pt.Holders, pt.Participants,
			pt.BytesPerSec/1e6, pt.MeanLat.Round(time.Microsecond))
		key := fmt.Sprintf("holders%d", pt.Holders)
		metric(key+"/agg_mb_per_sec", pt.BytesPerSec/1e6)
		metricDur(key+"/mean_lat_ms", pt.MeanLat)
	}
	fmt.Printf("  storm: %d/%d live leases shed (%.0f%%) over %d pulses\n",
		res.Shed, res.LiveBefore, res.ShedFrac*100, exp.DefaultClusterParams().StormPulses)
	fmt.Printf("  latency: healthy=%v storm=%v recovered=%v (%.2fx inflation)\n",
		res.HealthyLat.Round(time.Microsecond), res.StormLat.Round(time.Microsecond),
		res.RecoveredLat.Round(time.Microsecond), res.Inflation)
	fmt.Printf("  reads: fallbacks=%d engine-visible errors=%d\n", res.Fallbacks, res.Errors)
	fmt.Printf("  heartbeats: %d rounds, %d batches, mean batch %.1f leases\n",
		res.Heartbeats, res.HBBatches, res.HBBatchMean)
	fmt.Printf("  broker: grants=%d renewals=%d expirations=%d revocations=%d active-peak=%d free=%d\n",
		res.Grants, res.Renewals, res.Expirations, res.Revocations, res.ActivePeak, res.FreeMRs)
	for _, t := range []string{"oltp", "olap", "batch"} {
		st := res.Tenants[t]
		fmt.Printf("  tenant %-6s grants=%d denies=%d sheds=%d held=%d MRs (%d MB)\n",
			t, st.Grants, st.Denies, st.Sheds, st.HeldMRs, st.HeldBytes>>20)
		metric("tenant/"+t+"/grants", float64(st.Grants))
		metric("tenant/"+t+"/denies", float64(st.Denies))
		metric("tenant/"+t+"/sheds", float64(st.Sheds))
	}
	metric("participants", float64(res.Participants))
	metric("live_before_storm", float64(res.LiveBefore))
	metric("shed", float64(res.Shed))
	metric("shed_frac", res.ShedFrac)
	metricDur("healthy_lat_ms", res.HealthyLat)
	metricDur("storm_lat_ms", res.StormLat)
	metricDur("recovered_lat_ms", res.RecoveredLat)
	metric("inflation", res.Inflation)
	metric("healthy_mb_per_sec", res.HealthyBPS/1e6)
	metric("storm_mb_per_sec", res.StormBPS/1e6)
	metric("fallbacks", float64(res.Fallbacks))
	metric("errors", float64(res.Errors))
	metric("heartbeat_rounds", float64(res.Heartbeats))
	metric("heartbeat_batches", float64(res.HBBatches))
	metric("heartbeat_batch_mean", res.HBBatchMean)
	metric("grants", float64(res.Grants))
	metric("renewals", float64(res.Renewals))
	metric("expirations", float64(res.Expirations))
	metric("revocations", float64(res.Revocations))
	metric("active_peak", float64(res.ActivePeak))
	return nil
}

func tables() error {
	fmt.Println("Table 4 (workloads, scaled ~1000x from the paper):")
	fmt.Println("  workload    data      local-mem  bpext    tempdb   concurrency")
	fmt.Println("  RangeScan   ~122 MB   32 MB      128 MB   8 MB     80")
	fmt.Println("  Hash+Sort   ~227 MB   256 MB     -        320 MB   1")
	fmt.Println("  TPC-H       SF 0.1    10 MB      128 MB   64 MB    5 streams")
	fmt.Println("  TPC-DS      SF 0.2    8 MB       96 MB    64 MB    5 streams")
	fmt.Println("  TPC-C       8 WH      16 MB      32 MB    8 MB     200 clients")
	fmt.Println()
	fmt.Println("Table 5 (designs): HDD | HDD+SSD | SMB+RamDrive | SMBDirect+RamDrive | Custom | Local Memory")
	return nil
}

func fig34() error {
	res, err := exp.RunIOMicro(*seed)
	if err != nil {
		return err
	}
	fmt.Println("Figure 3/4: I/O micro-benchmark (SQLIO)")
	fmt.Printf("  %-22s %-16s %12s %12s\n", "config", "pattern", "GB/s", "latency")
	for _, r := range res.Rows {
		fmt.Printf("  %-22s %-16s %12.3f %12v\n", r.Config, r.Pattern, r.BytesPerSec/1e9, r.Latency.Round(time.Microsecond))
	}
	return nil
}

func fig5() error {
	pts, err := exp.RunFig05MultiMemoryServers(*seed)
	if err != nil {
		return err
	}
	fmt.Println("Figure 5: one DB server, memory spread over N servers")
	fmt.Printf("  %8s %14s %12s %14s %12s\n", "servers", "rnd GB/s", "rnd lat", "seq GB/s", "seq lat")
	for _, pt := range pts {
		fmt.Printf("  %8d %14.3f %12v %14.3f %12v\n", pt.Servers,
			pt.RandomBPS/1e9, pt.RandomLat.Round(time.Microsecond),
			pt.SeqBPS/1e9, pt.SeqLat.Round(time.Microsecond))
	}
	return nil
}

func fig6() error {
	pts, err := exp.RunFig06MultiDBServers(*seed)
	if err != nil {
		return err
	}
	fmt.Println("Figure 6: N DB servers on one memory server")
	fmt.Printf("  %8s %14s %12s\n", "servers", "agg GB/s", "latency")
	for _, pt := range pts {
		fmt.Printf("  %8d %14.3f %12v\n", pt.Servers, pt.RandomBPS/1e9, pt.RandomLat.Round(time.Microsecond))
	}
	return nil
}

func rangeScan(updates float64) error {
	spindles := []int{4, 8, 20}
	designs := exp.AllDesigns
	if *quick {
		spindles = []int{20}
		designs = []exp.Design{exp.DesignHDDSSD, exp.DesignCustom}
	}
	var res []exp.RangeScanResult
	var err error
	if updates > 0 {
		fmt.Println("Figures 7/8: RangeScan, 20% updates")
		res, err = exp.RunFig0708RangeScanUpdates(*seed, spindles, designs)
	} else {
		fmt.Println("Figures 9/10: RangeScan, read-only")
		res, err = exp.RunFig0910RangeScanReadOnly(*seed, spindles, designs)
	}
	if err != nil {
		return err
	}
	fmt.Printf("  %-22s %10s %14s %12s %12s\n", "design", "spindles", "queries/s", "mean lat", "p95 lat")
	for _, r := range res {
		fmt.Printf("  %-22s %10d %14.0f %12v %12v\n", r.Design, r.Spindles,
			r.Throughput, r.MeanLat.Round(time.Microsecond), r.P95Lat.Round(time.Microsecond))
		key := fmt.Sprintf("%s/%d", r.Design, r.Spindles)
		metric(key+"/queries_per_sec", r.Throughput)
		metricDur(key+"/mean_lat_ms", r.MeanLat)
		metricDur(key+"/p95_lat_ms", r.P95Lat)
	}
	return nil
}

func fig11() error {
	dur := 2 * time.Second
	if *quick {
		dur = 500 * time.Millisecond
	}
	dds, err := exp.RunFig11Drilldown(*seed, dur)
	if err != nil {
		return err
	}
	fmt.Println("Figure 11: RangeScan drill-down (means over the run)")
	fmt.Printf("  %-22s %14s %10s\n", "design", "I/O MB/s", "CPU %")
	for _, dd := range dds {
		fmt.Printf("  %-22s %14.0f %10.1f\n", dd.Design, dd.IOBps.Mean()/1e6, dd.CPU.Mean())
	}
	lats, err := exp.RunFig11Latency(*seed, time.Second)
	if err != nil {
		return err
	}
	fmt.Println("  page-fetch latency under load (Figure 11c):")
	for _, l := range lats {
		fmt.Printf("  %-22s %12v\n", l.Design, l.Mean.Round(time.Microsecond))
	}
	return nil
}

func fig12() error {
	prm := exp.DefaultFig12Params()
	if *quick {
		prm.SizesMB = []int64{32, 96, 144}
		prm.Rows = 300000
		prm.Measure = 400 * time.Millisecond
	}
	for _, multi := range []bool{false, true} {
		pts, err := exp.RunFig12BPExtSize(*seed, multi, prm)
		if err != nil {
			return err
		}
		label := "one memory server"
		if multi {
			label = "multiple memory servers"
		}
		fmt.Printf("Figure 12 (%s):\n", label)
		fmt.Printf("  %10s %8s %14s %12s\n", "bpext MB", "servers", "queries/s", "mean lat")
		for _, pt := range pts {
			fmt.Printf("  %10d %8d %14.0f %12v\n", pt.BPExtBytes>>20, pt.Servers, pt.Throughput, pt.MeanLat.Round(time.Microsecond))
		}
	}
	return nil
}

func fig13() error {
	prm := exp.DefaultFig13Params()
	if *quick {
		prm.SBClients = 40
		prm.Warmup = 200 * time.Millisecond
		prm.Measure = 800 * time.Millisecond
	}
	res, err := exp.RunFig13RemoteImpact(*seed, prm)
	if err != nil {
		return err
	}
	fmt.Println("Figure 13: impact on the remote server's own workload")
	fmt.Printf("  %-10s %14s %12s %12s\n", "mode", "queries/s", "mean lat", "p99 lat")
	for _, r := range res {
		fmt.Printf("  %-10s %14.0f %12v %12v\n", r.Mode, r.Throughput,
			r.MeanLat.Round(time.Millisecond), r.P99Lat.Round(time.Millisecond))
	}
	return nil
}

func fig14() error {
	spindles := []int{4, 8, 20}
	designs := []exp.Design{exp.DesignHDD, exp.DesignHDDSSD, exp.DesignSMB, exp.DesignSMBDirect, exp.DesignCustom}
	if *quick {
		spindles = []int{20}
		designs = []exp.Design{exp.DesignHDDSSD, exp.DesignCustom}
	}
	res, err := exp.RunFig14HashSort(*seed, spindles, designs)
	if err != nil {
		return err
	}
	fmt.Println("Figure 14: Hash+Sort latency")
	fmt.Printf("  %-22s %10s %14s %10s %10s\n", "design", "spindles", "latency", "tempdb W", "tempdb R")
	for _, r := range res {
		fmt.Printf("  %-22s %10d %14v %9dM %9dM\n", r.Design, r.Spindles,
			r.Latency.Round(time.Millisecond), r.TempDBWrote>>20, r.TempDBRead>>20)
		metricDur(fmt.Sprintf("%s/%d/latency_ms", r.Design, r.Spindles), r.Latency)
	}
	return nil
}

func fig15a() error {
	sf := 0.05
	if *quick {
		sf = 0.02
	}
	res, factor, err := exp.RunFig15aSemanticCacheMV(*seed, sf)
	if err != nil {
		return err
	}
	fmt.Println("Figure 15a: semantic cache (materialized views)")
	fmt.Printf("  %6s %12s %12s %12s %10s %10s\n", "query", "base", "MV on SSD", "MV remote", "ssd x", "remote x")
	for _, r := range res {
		fmt.Printf("  Q%-5d %12v %12v %12v %9.0fx %9.0fx\n", r.QueryID,
			r.BaseLatency.Round(time.Microsecond), r.SSDLatency.Round(time.Microsecond),
			r.RemoteLat.Round(time.Microsecond), r.ImprovementSSD(), r.ImprovementRemote())
	}
	fmt.Printf("  aggregate remote-over-SSD factor: %.1fx\n", factor)
	return nil
}

func fig15b() error {
	sf := 0.05
	if *quick {
		sf = 0.02
	}
	remote, ssd, err := exp.RunFig15bSeekVsScan(*seed, sf)
	if err != nil {
		return err
	}
	fmt.Println("Figure 15b: INLJ vs HJ by selectivity")
	fmt.Printf("  %12s | %12s %12s | %12s %12s\n", "selectivity", "INLJ(remote)", "HJ(remote)", "INLJ(ssd)", "HJ(ssd)")
	for i := range remote {
		fmt.Printf("  %12.4f | %12v %12v | %12v %12v\n", remote[i].Selectivity,
			remote[i].INLJ.Round(time.Microsecond), remote[i].HJ.Round(time.Microsecond),
			ssd[i].INLJ.Round(time.Microsecond), ssd[i].HJ.Round(time.Microsecond))
	}
	return nil
}

func fig16() error {
	prm := exp.DefaultFig16Params()
	if *quick {
		prm.BPSizesMB = []int64{10, 20}
		prm.Rows = 125000
	}
	res, err := exp.RunFig16Priming(*seed, prm)
	if err != nil {
		return err
	}
	fmt.Println("Figure 16: buffer-pool priming")
	fmt.Printf("  %8s %12s %12s %12s %12s %12s\n", "BP MB", "warm-up", "prime", "transfer", "cold p95", "primed p95")
	for _, r := range res {
		fmt.Printf("  %8d %12v %12v %12v %12v %12v\n", r.BPBytes>>20,
			r.WarmupTime.Round(time.Millisecond), r.PrimeTime.Round(time.Millisecond),
			r.TransferTime.Round(time.Millisecond),
			r.ColdP95.Round(time.Millisecond), r.PrimedP95.Round(time.Millisecond))
	}
	return nil
}

func histogramLine(h *exp.ImprovementHistogram) string {
	order := []string{"<2x", "2-5x", "5-10x", "10-50x", "50-100x", ">=100x"}
	s := ""
	for _, b := range order {
		s += fmt.Sprintf(" %s:%d", b, h.Buckets[b])
	}
	return s
}

func tpch() error {
	prm := exp.DefaultTPCHParams()
	designs := exp.AllDesigns
	if *quick {
		prm.SF = 0.02
		prm.BPExtBytes = 32 << 20
		prm.QueryIDs = []int{1, 3, 6, 10, 18}
		designs = []exp.Design{exp.DesignHDDSSD, exp.DesignCustom}
	}
	fmt.Println("Figure 18: TPC-H throughput (queries/hour)")
	results := make(map[exp.Design]*exp.TPCHResult)
	for _, d := range designs {
		r, err := exp.RunTPCH(*seed, d, prm)
		if err != nil {
			return err
		}
		results[d] = r
		fmt.Printf("  %-22s %12.0f q/h  (spilling queries: %d)\n", d, r.QueriesPerHour, r.SpilledQueries)
		metric(fmt.Sprintf("%s/queries_per_hour", d), r.QueriesPerHour)
	}
	if base, ok := results[exp.DesignHDDSSD]; ok {
		if cust, ok := results[exp.DesignCustom]; ok {
			h := exp.Improvements(base.QueryLatencies, cust.QueryLatencies)
			fmt.Println("Figure 19: latency improvement histogram (Custom vs HDD+SSD):")
			fmt.Println(" " + histogramLine(h))
			var ids []int
			for id := range h.Factors {
				ids = append(ids, id)
			}
			sort.Ints(ids)
			for _, id := range ids {
				fmt.Printf("    Q%-3d %8.1fx\n", id, h.Factors[id])
			}
		}
	}
	return nil
}

func tpcds() error {
	prm := exp.DefaultTPCDSParams()
	designs := exp.AllDesigns
	if *quick {
		prm.SF = 0.05
		prm.BPExtBytes = 32 << 20
		prm.QueryIDs = []int{1, 5, 10, 20, 30, 40, 50}
		designs = []exp.Design{exp.DesignHDDSSD, exp.DesignCustom}
	}
	fmt.Println("Figure 20: TPC-DS throughput (queries/hour)")
	results := make(map[exp.Design]*exp.TPCHResult)
	for _, d := range designs {
		r, err := exp.RunTPCDS(*seed, d, prm)
		if err != nil {
			return err
		}
		results[d] = r
		fmt.Printf("  %-22s %12.0f q/h\n", d, r.QueriesPerHour)
		metric(fmt.Sprintf("%s/queries_per_hour", d), r.QueriesPerHour)
	}
	if base, ok := results[exp.DesignHDDSSD]; ok {
		if cust, ok := results[exp.DesignCustom]; ok {
			h := exp.Improvements(base.QueryLatencies, cust.QueryLatencies)
			fmt.Println("Figure 21: latency improvement histogram (Custom vs HDD+SSD):")
			fmt.Println(" " + histogramLine(h))
		}
	}
	return nil
}

func tpcc() error {
	prm := exp.DefaultTPCCParams()
	designs := exp.AllDesigns
	if *quick {
		prm.Cfg.Warehouses = 4
		prm.Cfg.Clients = 50
		designs = []exp.Design{exp.DesignHDDSSD, exp.DesignCustom}
	}
	for _, rm := range []bool{false, true} {
		label := "Default TPCC"
		if rm {
			label = "Read-Mostly TPCC"
		}
		fmt.Printf("Figures 22/23: %s\n", label)
		fmt.Printf("  %-22s %14s %12s\n", "design", "tx/s", "mean lat")
		for _, d := range designs {
			r, err := exp.RunTPCC(*seed, d, rm, prm)
			if err != nil {
				return err
			}
			fmt.Printf("  %-22s %14.0f %12v\n", d, r.Throughput, r.MeanLat.Round(time.Microsecond))
			key := fmt.Sprintf("%s/%s", label, d)
			metric(key+"/tx_per_sec", r.Throughput)
			metricDur(key+"/mean_lat_ms", r.MeanLat)
		}
	}
	return nil
}

func fig24() error {
	prm := exp.DefaultFig24Params()
	if *quick {
		prm.MemsMB = []int64{16, 128}
		prm.Measure = 400 * time.Millisecond
	}
	pts, err := exp.RunFig24LocalMemorySweep(*seed, prm)
	if err != nil {
		return err
	}
	fmt.Println("Figure 24: local memory sweep (RangeScan)")
	fmt.Printf("  %10s %-22s %14s %12s\n", "local MB", "design", "queries/s", "mean lat")
	for _, pt := range pts {
		fmt.Printf("  %10d %-22s %14.0f %12v\n", pt.LocalMemBytes>>20, pt.Design, pt.Throughput, pt.MeanLat.Round(time.Microsecond))
	}
	return nil
}

func fig25() error {
	prm := exp.DefaultFig25Params()
	if *quick {
		prm.Rows = 80000
		prm.Clients = 20
		prm.Warmup = 150 * time.Millisecond
		prm.Measure = 500 * time.Millisecond
	}
	pts, err := exp.RunFig25MultiDBRangeScan(*seed, prm)
	if err != nil {
		return err
	}
	fmt.Println("Figure 25: N database servers sharing one memory server")
	fmt.Printf("  %8s %14s %12s\n", "servers", "agg q/s", "mean lat")
	for _, pt := range pts {
		fmt.Printf("  %8d %14.0f %12v\n", pt.DBServers, pt.Throughput, pt.MeanLat.Round(time.Microsecond))
	}
	return nil
}

func fig26() error {
	pts, err := exp.RunFig26CacheRecovery(*seed)
	if err != nil {
		return err
	}
	fmt.Println("Figure 26: semantic-cache recovery from the WAL")
	fmt.Printf("  %10s %14s %10s\n", "dirty MB", "recovery", "records")
	for _, pt := range pts {
		fmt.Printf("  %10d %14v %10d\n", pt.DirtyBytes>>20, pt.RecoveryTime.Round(time.Millisecond), pt.Replayed)
	}
	return nil
}

func fig27() error {
	fmt.Println("Figure 27: parallel data loading (80 splits x 2 MB)")
	fmt.Printf("  %8s %12s %12s %12s\n", "servers", "load", "copy", "total")
	for _, n := range []int{1, 2, 4, 8} {
		var st loader.Stats
		err := exp.RunInSim(*seed, time.Hour, func(p *sim.Proc) error {
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
			st = loader.LoadParallel(p, servers, splits, loader.DefaultCostModel())
			return nil
		})
		if err != nil {
			return err
		}
		fmt.Printf("  %8d %12v %12v %12v\n", n, st.LoadTime.Round(time.Millisecond),
			st.CopyTime.Round(time.Millisecond), st.WallClock.Round(time.Millisecond))
	}
	return nil
}

func ablation() error {
	fmt.Println("Table 1 ablations (8K random reads over RDMA):")
	a, err := exp.RunAblationSyncVsAsync(*seed)
	if err != nil {
		return err
	}
	fmt.Printf("  %-28s chosen(%s)=%v  alt(%s)=%v  (%.2fx)\n",
		a.Choice, a.Chosen, a.ChosenLat.Round(time.Microsecond),
		a.Alternative, a.AltLat.Round(time.Microsecond), a.Factor())
	b, err := exp.RunAblationRegistration(*seed)
	if err != nil {
		return err
	}
	fmt.Printf("  %-28s chosen(%s)=%v  alt(%s)=%v  (%.2fx)\n",
		b.Choice, b.Chosen, b.ChosenLat.Round(time.Microsecond),
		b.Alternative, b.AltLat.Round(time.Microsecond), b.Factor())
	c, err := exp.RunAblationEncryption(*seed)
	if err != nil {
		return err
	}
	fmt.Printf("  %-28s chosen(%s)=%v  alt(%s)=%v  (%.2fx)\n",
		c.Choice, c.Chosen, c.ChosenLat.Round(time.Microsecond),
		c.Alternative, c.AltLat.Round(time.Microsecond), c.Factor())
	d, err := exp.RunAblationAdaptive(*seed)
	if err != nil {
		return err
	}
	fmt.Printf("  %-28s chosen(%s)=%v  alt(%s)=%v  (%.2fx)\n",
		d.Choice, d.Chosen, d.ChosenLat.Round(time.Microsecond),
		d.Alternative, d.AltLat.Round(time.Microsecond), d.Factor())
	return nil
}

func plancache() error {
	fmt.Println("Plan cache: one query shape, shifting PK bounds, cache on vs off")
	prm := exp.DefaultPlanCacheParams()
	if *quick {
		prm.Reps = 50
	}
	res, err := exp.RunPlanCache(*seed, prm)
	if err != nil {
		return err
	}
	fmt.Printf("  %d reps: cached=%v uncached=%v (%.1fx)\n",
		prm.Reps, res.CachedTime.Round(time.Microsecond),
		res.UncachedTime.Round(time.Microsecond), res.Speedup)
	fmt.Printf("  cold query=%v warm query=%v  hits=%d misses=%d\n",
		res.ColdLat.Round(time.Microsecond), res.WarmLat.Round(time.Microsecond),
		res.Hits, res.Misses)
	metric("cached_ms", float64(res.CachedTime)/float64(time.Millisecond))
	metric("uncached_ms", float64(res.UncachedTime)/float64(time.Millisecond))
	metricDur("cold_lat_ms", res.ColdLat)
	metricDur("warm_lat_ms", res.WarmLat)
	metric("speedup", res.Speedup)
	metric("hits", float64(res.Hits))
	metric("misses", float64(res.Misses))
	return nil
}

func parscan() error {
	fmt.Println("Parallel scan: lineitem count over remote memory, DOP sweep")
	prm := exp.DefaultParScanParams()
	if *quick {
		prm.SF = 0.02
		prm.DOPs = []int{1, 4, 8}
	}
	pts, err := exp.RunParScan(*seed, prm)
	if err != nil {
		return err
	}
	fmt.Printf("  %6s %14s %16s %10s\n", "DOP", "elapsed", "rows/s", "speedup")
	for _, pt := range pts {
		fmt.Printf("  %6d %14v %16.0f %9.2fx\n", pt.DOP,
			pt.Elapsed.Round(time.Microsecond), pt.RowsPerSec, pt.Speedup)
		metric(fmt.Sprintf("dop%d/rows_per_sec", pt.DOP), pt.RowsPerSec)
		metric(fmt.Sprintf("dop%d/speedup", pt.DOP), pt.Speedup)
	}
	return nil
}

func faults() error {
	fmt.Println("Fault recovery (Custom design): RangeScan through a BPExt")
	fmt.Println("revocation storm inside a metastore partition; the FS re-leases")
	fmt.Println("and restripes while the engine keeps running off the data file.")
	prm := exp.DefaultFaultRecoveryParams()
	if *quick {
		prm.Rows = 30000
		prm.Window = 150 * time.Millisecond
	}
	res, err := exp.RunFaultRecovery(*seed, prm)
	if err != nil {
		return err
	}
	fmt.Printf("  throughput q/s:  healthy=%.0f  during=%.0f  after=%.0f\n",
		res.Healthy, res.During, res.After)
	fmt.Printf("  stripes: lost=%d re-leased=%d salvaged=%d\n",
		res.Lost, res.Restripes, res.Salvages)
	fmt.Printf("  metastore timeouts while partitioned: %d\n", res.Timeouts)
	fmt.Printf("  engine-visible query errors: %d\n", res.Errors)
	fmt.Printf("  recovered=%v bpext-healthy=%v\n", res.Recovered, res.ExtHealthy)
	metric("healthy_queries_per_sec", res.Healthy)
	metric("during_queries_per_sec", res.During)
	metric("after_queries_per_sec", res.After)
	metric("lost_stripes", float64(res.Lost))
	metric("restripes", float64(res.Restripes))
	metric("salvages", float64(res.Salvages))
	metric("metastore_timeouts", float64(res.Timeouts))
	metric("errors", float64(res.Errors))
	return nil
}

func scrub() error {
	fmt.Println("Scrub (Custom design, 2-way replicated + checksummed striping):")
	fmt.Println("a storm of bit flips, torn writes, and stale-replica resurrections")
	fmt.Println("poked into donor memory mid-RangeScan, then a full-file primary")
	fmt.Println("revocation storm. Every corruption must be detected and repaired")
	fmt.Println("from a replica; the revocations must need no salvage.")
	prm := exp.DefaultScrubParams()
	if *quick {
		prm.Rows = 40000
		prm.Clients = 8
		prm.Window = 120 * time.Millisecond
	}
	res, err := exp.RunScrub(*seed, prm)
	if err != nil {
		return err
	}
	fmt.Printf("  corruption storm: injected=%d detected=%d repaired=%d failovers=%d\n",
		res.Injected, res.Detected, res.Repaired, res.Failovers)
	fmt.Printf("  scrubber: sweeps=%d frames-verified=%d poisoned=%d\n",
		res.ScrubSweeps, res.ScrubChecked, res.Poisoned)
	fmt.Printf("  engine-visible errors: %d   throughput=%.0f q/s  mean=%v p95=%v\n",
		res.Errors, res.Throughput, res.MeanLat.Round(time.Microsecond), res.P95Lat.Round(time.Microsecond))
	fmt.Printf("  revocation storm: stripes=%d replica-rebuilds=%d salvages=%d lost=%d errors=%d healthy=%v\n",
		res.StormStripes, res.ReplicaRepairs, res.Salvages, res.LostStripes,
		res.StormErrors, res.StormHealthy)
	metric("injected", float64(res.Injected))
	metric("detected", float64(res.Detected))
	metric("repaired", float64(res.Repaired))
	metric("failovers", float64(res.Failovers))
	metric("scrub_sweeps", float64(res.ScrubSweeps))
	metric("scrub_checked", float64(res.ScrubChecked))
	metric("poisoned", float64(res.Poisoned))
	metric("errors", float64(res.Errors))
	metric("queries_per_sec", res.Throughput)
	metricDur("mean_lat_ms", res.MeanLat)
	metricDur("p95_lat_ms", res.P95Lat)
	metric("storm_stripes", float64(res.StormStripes))
	metric("replica_rebuilds", float64(res.ReplicaRepairs))
	metric("storm_salvages", float64(res.Salvages))
	metric("storm_lost_stripes", float64(res.LostStripes))
	metric("storm_errors", float64(res.StormErrors))
	return nil
}

func chaosBench() error {
	fmt.Println("Tail-tolerance chaos harness: slow donors (hedging A/B),")
	fmt.Println("a reclamation storm under the full stack, and a flapping donor")
	prm := exp.DefaultChaosParams()
	if *quick {
		prm = exp.QuickChaosParams()
	}
	res, err := exp.RunChaos(*seed, prm)
	if err != nil {
		return err
	}
	fmt.Printf("  %d participants, %d-way replicated stripes, hedge cap %.0f%%\n",
		res.Participants, prm.Replication, prm.HedgeRateCap*100)
	fmt.Printf("  slow donors (%d donors +%v):\n", prm.SlowDonors, prm.SlowBy)
	fmt.Printf("    hedging off: p50=%v p99=%v %.0f MB/s\n",
		res.SlowOff.P50.Round(time.Microsecond), res.SlowOff.P99.Round(time.Microsecond), res.SlowOff.BytesPerSec/1e6)
	fmt.Printf("    hedging on:  p50=%v p99=%v %.0f MB/s\n",
		res.SlowOn.P50.Round(time.Microsecond), res.SlowOn.P99.Round(time.Microsecond), res.SlowOn.BytesPerSec/1e6)
	fmt.Printf("    p99 cut %.1fx, hedge rate %.3f (%d hedges, %d wins, %d tolerant reads)\n",
		res.HedgeCut, res.HedgeRate, res.Hedged, res.HedgeWins, res.Tolerant)
	fmt.Printf("  reclamation storm: %d/%d leases shed\n", res.Shed, res.LiveBefore)
	fmt.Printf("    healthy:   p99=%v %.0f MB/s\n", res.Healthy.P99.Round(time.Microsecond), res.Healthy.BytesPerSec/1e6)
	fmt.Printf("    storm:     p99=%v %.0f MB/s\n", res.Storm.P99.Round(time.Microsecond), res.Storm.BytesPerSec/1e6)
	fmt.Printf("    recovered: p99=%v %.0f MB/s\n", res.Recovered.P99.Round(time.Microsecond), res.Recovered.BytesPerSec/1e6)
	fmt.Printf("    slow-reads=%d deadline-misses=%d hedged=%d proactive-migrations=%d\n",
		res.StormSlow, res.StormMisses, res.StormHedged, res.StormMigrations)
	fmt.Printf("  flapping donor: brownouts=%d quarantines=%d probes=%d recoveries=%d health-reports=%d\n",
		res.FlapBrownouts, res.FlapQuarantines, res.FlapProbes, res.FlapRecoveries, res.HealthReports)
	fmt.Printf("  fallback reads=%d engine-visible errors=%d\n", res.Fallbacks, res.Errors)

	metric("participants", float64(res.Participants))
	metricDur("slow_off_p50_ms", res.SlowOff.P50)
	metricDur("slow_off_p99_ms", res.SlowOff.P99)
	metric("slow_off_mb_per_sec", res.SlowOff.BytesPerSec/1e6)
	metricDur("slow_on_p50_ms", res.SlowOn.P50)
	metricDur("slow_on_p99_ms", res.SlowOn.P99)
	metric("slow_on_mb_per_sec", res.SlowOn.BytesPerSec/1e6)
	metric("hedge_cut", res.HedgeCut)
	metric("hedge_rate", res.HedgeRate)
	metric("hedged_reads", float64(res.Hedged))
	metric("hedge_wins", float64(res.HedgeWins))
	metric("tolerant_reads", float64(res.Tolerant))
	metric("live_before_storm", float64(res.LiveBefore))
	metric("shed", float64(res.Shed))
	metricDur("healthy_p99_ms", res.Healthy.P99)
	metric("healthy_mb_per_sec", res.Healthy.BytesPerSec/1e6)
	metricDur("storm_p99_ms", res.Storm.P99)
	metric("storm_mb_per_sec", res.Storm.BytesPerSec/1e6)
	metricDur("recovered_p99_ms", res.Recovered.P99)
	metric("recovered_mb_per_sec", res.Recovered.BytesPerSec/1e6)
	metric("storm_slow_reads", float64(res.StormSlow))
	metric("storm_deadline_misses", float64(res.StormMisses))
	metric("storm_hedged", float64(res.StormHedged))
	metric("storm_migrations", float64(res.StormMigrations))
	metric("flap_brownouts", float64(res.FlapBrownouts))
	metric("flap_quarantines", float64(res.FlapQuarantines))
	metric("flap_probes", float64(res.FlapProbes))
	metric("flap_recoveries", float64(res.FlapRecoveries))
	metric("health_reports", float64(res.HealthReports))
	metric("fallbacks", float64(res.Fallbacks))
	metric("errors", float64(res.Errors))
	return nil
}
