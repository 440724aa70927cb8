package exp

import (
	"fmt"
	"io"
	"math"
	"sort"
	"strconv"
	"strings"
	"time"
)

// Report is what one experiment prints and measures: its rows go to W,
// its headline numbers to Metrics under the names its Summary prints.
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

// MetricBool records a condition as 1 (true) or 0 (false).
func (r *Report) MetricBool(name string, v bool) {
	f := 0.0
	if v {
		f = 1
	}
	r.Metric(name, f)
}

// Experiment is one entry of the evaluation: a table or figure of the
// paper, or one of the extension experiments.
type Experiment struct {
	Names []string // the first names the entry in "all", its golden file and the benchmarks
	About string
	// Run prints the experiment's rows to r and records its metrics;
	// quick selects the experiment's reduced geometry.
	Run func(seed int64, quick bool, r *Report) error
	// Claims are what the entry's metrics must show, checked at seed 1.
	Claims []Claim
}

// Claim is one statement of the paper (or, for an extension
// experiment, of this repository) about an experiment's numbers: a
// check over the metrics the experiment's report records.
type Claim struct {
	Name  string
	Paper string // the paper's value as text, e.g. "3–10×"
	Holds func(m Metric) bool
}

// Summary renders what follows an entry's report text on rmbench's
// stdout and in the entry's golden file: a "-- metrics --" line, the
// metrics one per line in name order, then one line per claim, "claim
// <name> ok" or "claim <name> FAIL: <why>". held says whether every claim
// held.
func (e Experiment) Summary(metrics map[string]float64) (text string, held bool) {
	names := make([]string, 0, len(metrics))
	for n := range metrics {
		names = append(names, n)
	}
	sort.Strings(names)
	var sb strings.Builder
	sb.WriteString("-- metrics --\n")
	for _, n := range names {
		fmt.Fprintf(&sb, "%s\t%s\n", n, strconv.FormatFloat(metrics[n], 'g', -1, 64))
	}
	held = true
	for _, c := range e.Claims {
		if err := c.Check(metrics); err != nil {
			fmt.Fprintf(&sb, "claim %s FAIL: %v\n", c.Name, err)
			held = false
		} else {
			fmt.Fprintf(&sb, "claim %s ok\n", c.Name)
		}
	}
	return sb.String(), held
}

// Metric reads one recorded metric by name.
type Metric func(name string) float64

// Check evaluates the claim over a report's metrics. It fails if the
// claim does not hold, listing every value it read, or if it read a
// metric the report did not record.
func (c Claim) Check(metrics map[string]float64) error {
	var read []string
	missing := ""
	ok := c.Holds(func(name string) float64 {
		v, found := metrics[name]
		if !found {
			missing, v = name, math.NaN()
		}
		read = append(read, fmt.Sprintf("%s=%g", name, v))
		return v
	})
	switch {
	case missing != "":
		return fmt.Errorf("claim %s (paper: %s) reads %q, which the report did not record", c.Name, c.Paper, missing)
	case !ok:
		return fmt.Errorf("claim %s (paper: %s) does not hold: %s", c.Name, c.Paper, strings.Join(read, ", "))
	}
	return nil
}

// atLeast claims metric >= bound.
func atLeast(name, paper, metric string, bound float64) Claim {
	return Claim{name, paper, func(m Metric) bool { return m(metric) >= bound }}
}

// above claims metric > bound.
func above(name, paper, metric string, bound float64) Claim {
	return Claim{name, paper, func(m Metric) bool { return m(metric) > bound }}
}

// atMost claims metric <= bound.
func atMost(name, paper, metric string, bound float64) Claim {
	return Claim{name, paper, func(m Metric) bool { return m(metric) <= bound }}
}

// equals claims metric == want (a count or a 0/1 condition).
func equals(name, paper, metric string, want float64) Claim {
	return Claim{name, paper, func(m Metric) bool { return m(metric) == want }}
}

// timesAtLeast claims a >= k·b.
func timesAtLeast(name, paper, a string, k float64, b string) Claim {
	return Claim{name, paper, func(m Metric) bool { return m(a) >= k*m(b) }}
}

// near says whether v is the paper's "~target×": within 20 % of it.
func near(v, target float64) bool { return math.Abs(v/target-1) <= 0.2 }

// rangeScan reads one bar of Figures 7-10.
func rangeScan(m Metric, d Design, spindles int) float64 {
	return m(fmt.Sprintf("%s/%d/queries_per_sec", d, spindles))
}

// Experiments is the one table of experiments, in the order rmbench
// lists and runs them. rmbench, the repository's benchmarks and the
// experiment test all read it.
var Experiments = []Experiment{
	{[]string{"tables"}, "Table 4 workload summary (scaled) and Table 5 designs", reportTables, nil},
	{[]string{"fig3", "fig4"}, "I/O micro-benchmark throughput and latency", reportFig34, []Claim{
		equals("rows", "7 configurations × 2 patterns", "rows", 14),
		{"random-ordering", "Custom > SMBDirect > SMB > SSD > HDD(20) > HDD(8) > HDD(4)", func(m Metric) bool {
			order := []string{"Custom", "SMBDirect+RamDrive", "SMB+RamDrive", "SSD", "HDD(20)", "HDD(8)", "HDD(4)"}
			for i := 1; i < len(order); i++ {
				if !(m(order[i-1]+"/random/gb_per_sec") > m(order[i]+"/random/gb_per_sec")) {
					return false
				}
			}
			return true
		}},
		{"sequential-ordering", "Custom > HDD(20) > SSD: the RAID-0 streams outrun the SSD", func(m Metric) bool {
			return m("Custom/sequential/gb_per_sec") > m("HDD(20)/sequential/gb_per_sec") &&
				m("HDD(20)/sequential/gb_per_sec") > m("SSD/sequential/gb_per_sec")
		}},
		atMost("custom-random-latency", "36 µs", "Custom/random/lat_ms", 0.1),
		atLeast("hdd-random-latency", "8 ms at HDD(20)", "HDD(20)/random/lat_ms", 1),
	}},
	{[]string{"fig5"}, "one DB server, 1..8 memory servers", reportFig5, []Claim{
		{"random-flat", "flat in the number of memory servers", func(m Metric) bool {
			base := m("servers1/rnd_gb_per_sec")
			for _, n := range []int{2, 4, 8} {
				if math.Abs(m(fmt.Sprintf("servers%d/rnd_gb_per_sec", n))/base-1) > 0.15 {
					return false
				}
			}
			return true
		}},
		{"sequential-flat", "flat in the number of memory servers", func(m Metric) bool {
			base := m("servers1/seq_gb_per_sec")
			for _, n := range []int{2, 4, 8} {
				if !(m(fmt.Sprintf("servers%d/seq_gb_per_sec", n)) >= 0.85*base) {
					return false
				}
			}
			return true
		}},
	}},
	{[]string{"fig6"}, "1..8 DB servers, one memory server", reportFig6, []Claim{
		{"two-dbs-scale", "aggregate scales ~linearly until the donor NIC saturates", func(m Metric) bool {
			return m("servers2/agg_gb_per_sec") > 1.5*m("servers1/agg_gb_per_sec")
		}},
		{"eight-dbs-saturate", "saturation by ~4 DBs", func(m Metric) bool {
			return m("servers8/agg_gb_per_sec") <= 1.35*m("servers4/agg_gb_per_sec")
		}},
		{"latency-rises", "latency rises after saturation", func(m Metric) bool {
			return m("servers8/lat_ms") > 2*m("servers1/lat_ms")
		}},
	}},
	{[]string{"fig7", "fig8"}, "RangeScan with 20% updates (throughput / latency)", func(seed int64, quick bool, rep *Report) error {
		return reportRangeScan(seed, quick, 0.20, rep)
	}, []Claim{
		{"spindle-scaling", "throughput rises with spindles: the WAL lives on the HDD array", func(m Metric) bool {
			return rangeScan(m, DesignCustom, 20) > rangeScan(m, DesignCustom, 4)
		}},
	}},
	{[]string{"fig9", "fig10"}, "RangeScan read-only", func(seed int64, quick bool, rep *Report) error {
		return reportRangeScan(seed, quick, 0, rep)
	}, []Claim{
		// Custom against SMBDirect is a CPU-bound tie: Custom spins a
		// core through each transfer, SMBDirect pays a context switch.
		{"design-ordering", "HDD < HDD+SSD < SMB < SMBDirect ≤ Custom", func(m Metric) bool {
			return rangeScan(m, DesignCustom, 20) >= 0.99*rangeScan(m, DesignSMBDirect, 20) &&
				rangeScan(m, DesignSMBDirect, 20) > rangeScan(m, DesignSMB, 20) &&
				rangeScan(m, DesignSMB, 20) > rangeScan(m, DesignHDDSSD, 20) &&
				rangeScan(m, DesignHDDSSD, 20) > rangeScan(m, DesignHDD, 20)
		}},
		{"custom-near-local", "within ~10% of Local Memory", func(m Metric) bool {
			return rangeScan(m, DesignCustom, 20) >= 0.80*rangeScan(m, DesignLocalMemory, 20)
		}},
		{"custom-over-hddssd", "3–10×", func(m Metric) bool {
			return rangeScan(m, DesignCustom, 20) >= 2.5*rangeScan(m, DesignHDDSSD, 20)
		}},
		atLeast("custom-throughput", "tens of thousands of queries/s", "Custom/20/queries_per_sec", 20000),
	}},
	{[]string{"fig11"}, "RangeScan drill-down (I/O, CPU, latency)", reportFig11, []Claim{
		atLeast("custom-cpu-bound", "~100% CPU", "Custom/cpu_pct", 60),
		{"hddssd-io-bound", "~20% CPU while Custom runs at ~100%", func(m Metric) bool {
			return m("HDD+SSD/cpu_pct") <= 0.6*m("Custom/cpu_pct")
		}},
		{"custom-fetch-faster", "13 µs against SMBDirect's 272 µs", func(m Metric) bool {
			return m("Custom/fetch_lat_ms") < m("SMBDirect+RamDrive/fetch_lat_ms")
		}},
	}},
	{[]string{"fig12"}, "BPExt size sweep (single and multiple memory servers)", reportFig12, []Claim{
		timesAtLeast("more-memory-helps", "throughput rises until the data fits", "ext144mb/queries_per_sec", 1.5, "ext32mb/queries_per_sec"),
		atMost("servers-indistinguishable", "one vs many memory servers indistinguishable", "multi_vs_single_max_dev", 0.25),
	}},
	{[]string{"fig13"}, "impact of remote access on the memory server", reportFig13, []Claim{
		timesAtLeast("rdma-no-dent", "RDMA leaves the donor's workload untouched", "RDMA/queries_per_sec", 0.97, "Default/queries_per_sec"),
		{"tcp-dents", "TCP costs ~10% throughput", func(m Metric) bool {
			return m("TCP/queries_per_sec") <= 0.97*m("Default/queries_per_sec")
		}},
		timesAtLeast("tcp-tail", "TCP costs up to 20% p99", "TCP/p99_lat_ms", 1, "Default/p99_lat_ms"),
	}},
	{[]string{"fig14"}, "Hash+Sort latency per design", reportFig14, []Claim{
		{"custom-over-hddssd", "HDD+SSD ~5× slower than Custom", func(m Metric) bool {
			return near(m("HDD+SSD/20/latency_ms")/m("Custom/20/latency_ms"), 5)
		}},
	}},
	{[]string{"fig15a"}, "semantic cache: MV placement", reportFig15a, []Claim{
		equals("seven-queries", "7 queries", "queries", 7),
		atLeast("mv-on-ssd-helps", "MVs give 1–4 orders of magnitude", "min_ssd_mv_speedup", 1.5),
		atLeast("remote-never-slower", "remote adds about an order over SSD", "min_query_remote_over_ssd", 1),
		atLeast("remote-over-ssd", "remote adds about an order over SSD", "remote_over_ssd", 1.2),
	}},
	{[]string{"fig15b"}, "semantic cache: seek vs scan crossover", reportFig15b, []Claim{
		{"inlj-wins-low", "INLJ wins at low selectivity", func(m Metric) bool { return m("remote/inlj_over_hj_at_min_sel") < 1 }},
		above("hj-wins-high", "HJ wins at high selectivity", "remote/inlj_over_hj_at_max_sel", 1),
		timesAtLeast("crossover-moves-right", "the crossover moves right when the index is remote", "crossover_remote", 1, "crossover_ssd"),
	}},
	{[]string{"fig16"}, "buffer-pool priming", reportFig16, []Claim{
		atLeast("prime-vs-warmup-10mb", "~2 orders of magnitude faster", "bp10mb/warmup_over_prime", 50),
		atLeast("prime-vs-warmup-20mb", "~2 orders of magnitude faster", "bp20mb/warmup_over_prime", 50),
		atLeast("primed-tail-10mb", "primed pools cut p95 4–10×", "bp10mb/tail_improvement", 1),
		atLeast("primed-tail-20mb", "primed pools cut p95 4–10×", "bp20mb/tail_improvement", 3),
	}},
	{[]string{"fig18", "fig19"}, "TPC-H throughput + latency histogram", func(seed int64, quick bool, rep *Report) error {
		return reportStreams(seed, quick, rep, false)
	}, []Claim{
		{"custom-beats-hddssd", "Custom beats HDD+SSD", func(m Metric) bool {
			return m("Custom/queries_per_hour") > m("HDD+SSD/queries_per_hour")
		}},
	}},
	{[]string{"fig20", "fig21"}, "TPC-DS throughput + latency histogram", func(seed int64, quick bool, rep *Report) error {
		return reportStreams(seed, quick, rep, true)
	}, []Claim{
		atLeast("every-query-improves", "no query under 2× (18 at 2–5×, 21 at 5–10×, 11 at 10–50×)", "min_improvement", 2),
	}},
	{[]string{"fig22", "fig23"}, "TPC-C throughput + latency", reportTPCC, []Claim{
		{"read-mostly-remote-wins", "the read-mostly mix gains from remote memory", func(m Metric) bool {
			return m("Read-Mostly TPCC/Custom/tx_per_sec") > m("Read-Mostly TPCC/HDD+SSD/tx_per_sec")
		}},
	}},
	{[]string{"fig24"}, "local memory sweep", reportFig24, []Claim{
		atLeast("clear-win-small", "Custom wins clearly at small local memory", "local16mb/speedup", 1.5),
		atMost("converge-large", "the advantage disappears when the data fits", "local128mb/speedup", 1.25),
		{"advantage-shrinks", "the advantage decays as local memory grows", func(m Metric) bool {
			return m("local128mb/speedup") < m("local16mb/speedup")
		}},
	}},
	{[]string{"fig25"}, "multiple DB servers RangeScan", reportFig25, []Claim{
		atLeast("two-dbs-scale", "aggregate scales with DB servers", "dbs2/scaling", 1.5),
		atLeast("eight-dbs-scale", "until the donor NIC saturates", "dbs8/scaling", 2),
	}},
	{[]string{"fig26"}, "semantic cache recovery", reportFig26, []Claim{
		{"grows-with-dirty-data", "linear in the data dirtied since the checkpoint", func(m Metric) bool {
			prev := 0.0
			for _, mb := range []int{1, 2, 4, 8, 16} {
				cur := m(fmt.Sprintf("dirty%dmb/recovery_ms", mb))
				if !(cur > prev) {
					return false
				}
				prev = cur
			}
			return true
		}},
		{"scaling-16x", "16 GB in ~4 min: ~12× for 16× the data", func(m Metric) bool {
			r := m("dirty16mb/recovery_ms") / m("dirty1mb/recovery_ms")
			return r >= 2.5 && r <= 40
		}},
		{"marginal-cost-grows", "near-linear with an intercept", func(m Metric) bool {
			return m("dirty16mb/recovery_ms")-m("dirty8mb/recovery_ms") > m("dirty8mb/recovery_ms")-m("dirty4mb/recovery_ms")
		}},
	}},
	{[]string{"fig27"}, "parallel data loading", reportFig27, []Claim{
		{"eight-server-speedup", "7.7×", func(m Metric) bool { return near(m("servers8/speedup"), 7.7) }},
	}},
	{[]string{"ablation"}, "Table 1 design-choice ablations", reportAblation, []Claim{
		atLeast("sync-beats-async", "a context switch costs about an RDMA transfer", "asynchronous I/O/factor", 1.05),
		atLeast("staging-beats-registration", "50 µs registration against a 2 µs memcpy", "on-demand registration/factor", 1.5),
		{"encryption-overhead", "Section 7 future work", func(m Metric) bool {
			f := m("AES-CTR encrypted/factor")
			return f >= 1.1 && f <= 3
		}},
		atLeast("adaptive-beats-async", "Section 4.1.3 future work", "always-async/factor", 1.05),
	}},
	{[]string{"faults"}, "throughput through a revocation storm + recovery", reportFaults, []Claim{
		equals("zero-errors", "best effort: no query-visible error", "errors", 0),
		above("storm-landed", "stripes are lost", "lost_stripes", 0),
		above("restriped", "lost stripes are leased again", "restripes", 0),
		above("salvaged", "salvage callbacks run", "salvages", 0),
		above("partition-landed", "the metastore partition rejects operations", "metastore_timeouts", 0),
		equals("bpext-survives", "the BPExt degrades, then is repaired", "bpext_healthy", 1),
		timesAtLeast("throughput-recovers", "throughput recovers", "after_queries_per_sec", 0.8, "healthy_queries_per_sec"),
	}},
	{[]string{"scrub"}, "silent-corruption storm + K=2 revocation storm", reportScrub, []Claim{
		equals("zero-errors", "no wrong bytes reach the engine", "errors", 0),
		above("detected", "every corruption is detected", "detected", 0),
		above("repaired", "and repaired from a replica", "repaired", 0),
		equals("none-poisoned", "every corruption had a healthy copy", "poisoned", 0),
		{"scrubber-ran", "the scrubber sweeps", func(m Metric) bool { return m("scrub_sweeps") > 0 && m("scrub_checked") > 0 }},
		atLeast("storm-size", "a full-file revocation storm", "storm_stripes", 16),
		equals("storm-zero-errors", "no query-visible error", "storm_errors", 0),
		equals("no-salvage", "replication absorbs revocation", "storm_salvages", 0),
		equals("no-lost-stripes", "a replica survives every revocation", "storm_lost_stripes", 0),
		timesAtLeast("every-replica-rebuilt", "every revoked replica is rebuilt", "replica_rebuilds", 1, "storm_stripes"),
		equals("re-replicated", "the BPExt is fully re-replicated", "storm_healthy", 1),
	}},
	{[]string{"plancache"}, "repeated parameterized query: plan cache on vs off", reportPlanCache, []Claim{
		above("hits", "a repeated query stream hits", "hits", 0),
		equals("one-miss", "one shape, one miss", "misses", 1),
		above("speedup", "the cache saves optimization time", "speedup", 1),
	}},
	{[]string{"parscan"}, "parallel scan over remote memory: DOP sweep", reportParScan, []Claim{
		{"parallel-speedup", "a parallel scan beats a serial one", func(m Metric) bool {
			return m("dop4/speedup") > 1 && m("dop8/speedup") > 1
		}},
	}},
	{[]string{"iobatch"}, "vectored I/O: batched vs per-page transfers, burst priming, and an eviction storm through the vectored pool", reportIOBatch, nil},
	{[]string{"evict"}, "cost-aware GDSF eviction under a skewed working set, and adaptive readahead under short bursts", reportEvict, nil},
	{[]string{"pushdown"}, "donor-side operator pushdown vs fetch-all across selectivities, the optimizer's placement choice, and a pushed scan through a corruption + revocation storm", reportPushdown, nil},
	{[]string{"cluster"}, "cluster-scale broker: 200+ DB servers and donors on a sharded broker with batched heartbeats, through a diurnal reclamation wave", reportCluster, nil},
	{[]string{"chaos"}, "tail-tolerance chaos harness on the cluster bed: slow-donor injection (hedging A/B), a reclamation storm under deadline budgets + health scoring, and a flapping donor through the breaker's recovery arc", reportChaos, nil},
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
