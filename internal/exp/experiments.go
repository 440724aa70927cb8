package exp

import (
	"fmt"
	"io"
	"time"
)

// Report is what one experiment prints and measures: its rows go to W,
// its headline numbers to Metrics under the names rmbench -json writes
// to BENCH_<experiment>.json.
type Report struct {
	W       io.Writer
	Metrics map[string]float64
}

// NewReport returns an empty report that prints to w.
func NewReport(w io.Writer) *Report {
	return &Report{W: w, Metrics: make(map[string]float64)}
}

// Printf prints to the report's writer.
func (r *Report) Printf(format string, a ...any) { fmt.Fprintf(r.W, format, a...) }

// Println prints a line to the report's writer.
func (r *Report) Println(a ...any) { fmt.Fprintln(r.W, a...) }

// Metric records one named value.
func (r *Report) Metric(name string, v float64) { r.Metrics[name] = v }

// MetricDur records a duration in milliseconds.
func (r *Report) MetricDur(name string, d time.Duration) {
	r.Metric(name, float64(d)/float64(time.Millisecond))
}

// Experiment is one entry of the evaluation: a table or figure of the
// paper, or one of the extension experiments.
type Experiment struct {
	Names []string // the first names the entry in "all", -json and the benchmarks
	About string
	// Run prints the experiment's rows to r and records its metrics;
	// quick selects the experiment's reduced geometry.
	Run func(seed int64, quick bool, r *Report) error
}

// Experiments is the one table of experiments, in the order rmbench
// lists and runs them. rmbench, the repository's benchmarks and the
// golden test all read it.
var Experiments = []Experiment{
	{[]string{"tables"}, "Table 4 workload summary (scaled) and Table 5 designs", reportTables},
	{[]string{"fig3", "fig4"}, "I/O micro-benchmark throughput and latency", reportFig34},
	{[]string{"fig5"}, "one DB server, 1..8 memory servers", reportFig5},
	{[]string{"fig6"}, "1..8 DB servers, one memory server", reportFig6},
	{[]string{"fig7", "fig8"}, "RangeScan with 20% updates (throughput / latency)", func(seed int64, quick bool, rep *Report) error {
		return reportRangeScan(seed, quick, 0.20, rep)
	}},
	{[]string{"fig9", "fig10"}, "RangeScan read-only", func(seed int64, quick bool, rep *Report) error {
		return reportRangeScan(seed, quick, 0, rep)
	}},
	{[]string{"fig11"}, "RangeScan drill-down (I/O, CPU, latency)", reportFig11},
	{[]string{"fig12"}, "BPExt size sweep (single and multiple memory servers)", reportFig12},
	{[]string{"fig13"}, "impact of remote access on the memory server", reportFig13},
	{[]string{"fig14"}, "Hash+Sort latency per design", reportFig14},
	{[]string{"fig15a"}, "semantic cache: MV placement", reportFig15a},
	{[]string{"fig15b"}, "semantic cache: seek vs scan crossover", reportFig15b},
	{[]string{"fig16"}, "buffer-pool priming", reportFig16},
	{[]string{"fig18", "fig19"}, "TPC-H throughput + latency histogram", func(seed int64, quick bool, rep *Report) error {
		return reportStreams(seed, quick, rep, false)
	}},
	{[]string{"fig20", "fig21"}, "TPC-DS throughput + latency histogram", func(seed int64, quick bool, rep *Report) error {
		return reportStreams(seed, quick, rep, true)
	}},
	{[]string{"fig22", "fig23"}, "TPC-C throughput + latency", reportTPCC},
	{[]string{"fig24"}, "local memory sweep", reportFig24},
	{[]string{"fig25"}, "multiple DB servers RangeScan", reportFig25},
	{[]string{"fig26"}, "semantic cache recovery", reportFig26},
	{[]string{"fig27"}, "parallel data loading", reportFig27},
	{[]string{"ablation"}, "Table 1 design-choice ablations", reportAblation},
	{[]string{"faults"}, "throughput through a revocation storm + recovery", reportFaults},
	{[]string{"scrub"}, "silent-corruption storm + K=2 revocation storm", reportScrub},
	{[]string{"plancache"}, "repeated parameterized query: plan cache on vs off", reportPlanCache},
	{[]string{"parscan"}, "parallel scan over remote memory: DOP sweep", reportParScan},
	{[]string{"iobatch"}, "vectored I/O: batched vs per-page transfers, burst priming, eviction storm with batched I/O off vs on", reportIOBatch},
	{[]string{"evict"}, "eviction policy A/B: clock sweep vs cost-aware GDSF", reportEvict},
	{[]string{"pushdown"}, "donor-side operator pushdown vs fetch-all across selectivities, the optimizer's placement choice, and a pushed scan through a corruption + revocation storm", reportPushdown},
	{[]string{"cluster"}, "cluster-scale broker: 200+ DB servers and donors on a sharded broker with batched heartbeats, through a diurnal reclamation wave", reportCluster},
	{[]string{"chaos"}, "tail-tolerance chaos harness on the cluster bed: slow-donor injection (hedging A/B), a reclamation storm under deadline budgets + health scoring, and a flapping donor through the breaker's recovery arc", reportChaos},
}

// designsFor returns the designs an experiment sweeps: full, or in the
// quick geometry the paper's baseline and its proposal.
func designsFor(quick bool, full []Design) []Design {
	if quick {
		return []Design{DesignHDDSSD, DesignCustom}
	}
	return full
}

// spindlesFor returns the HDD array widths the Figure 7-10 and 14
// matrices sweep.
func spindlesFor(quick bool) []int {
	if quick {
		return []int{20}
	}
	return []int{4, 8, 20}
}

// reportTables prints Tables 4 and 5.
func reportTables(_ int64, _ bool, rep *Report) error {
	rep.Println("Table 4 (workloads, scaled ~1000x from the paper):")
	rep.Println("  workload    data      local-mem  bpext    tempdb   concurrency")
	rep.Println("  RangeScan   ~122 MB   32 MB      128 MB   8 MB     80")
	rep.Println("  Hash+Sort   ~227 MB   256 MB     -        320 MB   1")
	rep.Println("  TPC-H       SF 0.1    10 MB      128 MB   64 MB    5 streams")
	rep.Println("  TPC-DS      SF 0.2    8 MB       96 MB    64 MB    5 streams")
	rep.Println("  TPC-C       8 WH      16 MB      32 MB    8 MB     200 clients")
	rep.Println()
	rep.Println("Table 5 (designs): HDD | HDD+SSD | SMB+RamDrive | SMBDirect+RamDrive | Custom | Local Memory")
	return nil
}
