package main

import (
	"os"
	"slices"
	"strconv"
	"strings"
)

// metricDef declares one metric. The same declarations are written out
// in BENCHMARK.json; TestDeclaredNames keeps the two equal.
type metricDef struct {
	name   string
	unit   string
	better string // "higher" or "lower"
}

// endToEnd are the metrics a user of the system sees, on two clocks:
// sim_* on the virtual clock (the paper's claim), host_*, peak_rss_mb
// and setup_s on the wall clock and the heap (what the simulator costs).
var endToEnd = []metricDef{
	{"sim_ops_per_s", "1/s", "higher"},
	{"sim_lat_p50_us", "us", "lower"},
	{"sim_lat_tail_us", "us", "lower"},
	{"host_ops_per_s", "1/s", "higher"},
	{"host_alloc_bytes_per_op", "B", "lower"},
	{"peak_rss_mb", "MB", "lower"},
	{"setup_s", "s", "lower"},
}

// perLayer are the metrics of single layers, named after the repo's
// packages. README.md says which end-to-end metric each should move.
var perLayer = []metricDef{
	// sim
	{"sim.virtual_per_host", "ratio", "higher"},
	{"sim.host_sys_share", "ratio", "lower"},
	{"sim.sleep_host_ns", "ns", "lower"},
	{"sim.sleep_allocs", "count", "lower"},
	{"sim.pingpong_host_ns", "ns", "lower"},
	// hw/nic, hw/disk, cluster
	{"nic.db_rx_util", "ratio", "lower"},
	{"nic.db_tx_util", "ratio", "lower"},
	{"disk.hdd_reads_per_op", "count", "lower"},
	{"disk.hdd_writes_per_op", "count", "lower"},
	{"disk.hdd_bytes_written_per_op", "B", "lower"},
	{"cluster.db_cpu_us_per_op", "us", "lower"},
	{"cluster.db_cpu_util", "ratio", "lower"},
	{"cluster.donor_cpu_us_per_op", "us", "lower"},
	// broker
	{"broker.grants", "count", "lower"},
	{"broker.renewals", "count", "lower"},
	{"broker.create_sim_ms", "ms", "lower"},
	{"broker.request_release_sim_us", "us", "lower"},
	// rmem
	{"rmem.reads_per_op", "count", "lower"},
	{"rmem.writes_per_op", "count", "lower"},
	{"rmem.round_trips_per_op", "count", "lower"},
	{"rmem.bytes_read_per_op", "B", "lower"},
	{"rmem.bytes_written_per_op", "B", "lower"},
	{"rmem.staging_waits_per_op", "count", "lower"},
	{"rmem.staging_wait_us_per_op", "us", "lower"},
	{"rmem.read_8k_sim_us", "us", "lower"},
	{"rmem.read_8k_host_ns", "ns", "lower"},
	{"rmem.readv_16x8k_sim_us", "us", "lower"},
	// core
	{"core.read_sim_us_p50", "us", "lower"},
	{"core.read_sim_us_p99", "us", "lower"},
	{"core.readv_sim_us_p50", "us", "lower"},
	{"core.readv_sim_us_p99", "us", "lower"},
	{"core.write_sim_us_p50", "us", "lower"},
	{"core.write_sim_us_p99", "us", "lower"},
	{"core.hedged_reads_per_op", "count", "lower"},
	{"core.hedge_win_ratio", "ratio", "higher"},
	{"core.failovers_per_op", "count", "lower"},
	{"core.corruptions", "count", "lower"},
	{"core.brownouts", "count", "lower"},
	{"core.quarantines", "count", "lower"},
	{"core.proactive_migrations", "count", "lower"},
	{"core.read_amplification", "ratio", "lower"},
	{"core.readat_8k_sim_us", "us", "lower"},
	{"core.readat_8k_host_ns", "ns", "lower"},
	{"core.readat_8k_alloc_bytes", "B", "lower"},
	{"core.readatv_16x8k_sim_us", "us", "lower"},
	{"core.writeat_8k_sim_us", "us", "lower"},
	// vfs: the seam, one decorator per engine file role
	{"vfs.bpext.calls_per_op", "count", "lower"},
	{"vfs.bpext.sim_us_per_op", "us", "lower"},
	{"vfs.temp.calls_per_op", "count", "lower"},
	{"vfs.temp.sim_us_per_op", "us", "lower"},
	{"vfs.data.calls_per_op", "count", "lower"},
	{"vfs.data.sim_us_per_op", "us", "lower"},
	{"vfs.log.calls_per_op", "count", "lower"},
	{"vfs.log.sim_us_per_op", "us", "lower"},
	// engine/buffer
	{"buffer.gets_per_op", "count", "lower"},
	{"buffer.hit_ratio", "ratio", "higher"},
	{"buffer.ext_hit_ratio", "ratio", "higher"},
	{"buffer.disk_reads_per_op", "count", "lower"},
	{"buffer.evict_dirty_per_op", "count", "lower"},
	{"buffer.ext_writes_per_op", "count", "lower"},
	{"buffer.writer_pages_per_op", "count", "lower"},
	{"buffer.readahead_pages_per_op", "count", "lower"},
	{"buffer.readahead_waste_ratio", "ratio", "lower"},
	{"buffer.get_hit_host_ns", "ns", "lower"},
	{"buffer.get_hit_allocs", "count", "lower"},
	{"buffer.get_exthit_sim_us", "us", "lower"},
	// engine/btree, engine/row
	{"btree.scanrange100_sim_us_p50", "us", "lower"},
	{"btree.update_sim_us_p50", "us", "lower"},
	{"btree.scanrange100_host_ns", "ns", "lower"},
	{"row.decode_column_host_ns", "ns", "lower"},
	// engine/txn
	{"txn.appends_per_op", "count", "lower"},
	{"txn.flushes_per_op", "count", "lower"},
	{"txn.log_bytes_per_op", "B", "lower"},
	{"txn.commit_sim_us_p50", "us", "lower"},
	{"txn.commit_sim_us_p99", "us", "lower"},
	// engine/plan, engine/exec, engine/tempdb
	{"plan.cache_hit_ratio", "ratio", "higher"},
	{"plan.lower_cached_host_ns", "ns", "lower"},
	{"exec.spilled_parts_per_op", "count", "lower"},
	{"exec.spilled_runs_per_op", "count", "lower"},
	{"exec.q1_sim_ms", "ms", "lower"},
	{"exec.q3_sim_ms", "ms", "lower"},
	{"exec.q5_sim_ms", "ms", "lower"},
	{"exec.q6_sim_ms", "ms", "lower"},
	{"exec.q10_sim_ms", "ms", "lower"},
	{"exec.q12_sim_ms", "ms", "lower"},
	{"exec.q14_sim_ms", "ms", "lower"},
	{"exec.q18_sim_ms", "ms", "lower"},
	{"tempdb.bytes_spilled_per_op", "B", "lower"},
	{"tempdb.bytes_read_per_op", "B", "lower"},
	{"tempdb.spill_1mb_sim_us", "us", "lower"},
	// fault: failed ops by errors.Is class
	{"fault.unavailable", "count", "lower"},
	{"fault.corrupt", "count", "lower"},
	{"fault.slow", "count", "lower"},
	{"fault.other_typed", "count", "lower"},
	{"fault.untyped", "count", "lower"},
	// virtual-time split of the summed op latency (traced phase)
	{"trace.engine_sim_share", "ratio", "lower"},
	{"trace.btree_sim_share", "ratio", "lower"},
	{"trace.txn_sim_share", "ratio", "lower"},
	{"trace.core_sim_share", "ratio", "lower"},
	{"trace.disk_sim_share", "ratio", "lower"},
	{"trace.detached_sim_us_per_op", "us", "lower"},
	{"trace.overhead_pct", "%", "lower"},
	// host-time split: CPU profile flat time by Go package (traced phase)
	{"hostcpu.sim_share", "ratio", "lower"},
	{"hostcpu.runtime_sched_share", "ratio", "lower"},
	{"hostcpu.runtime_gc_share", "ratio", "lower"},
	{"hostcpu.core_share", "ratio", "lower"},
	{"hostcpu.rmem_share", "ratio", "lower"},
	{"hostcpu.hw_share", "ratio", "lower"},
	{"hostcpu.buffer_share", "ratio", "lower"},
	{"hostcpu.btree_share", "ratio", "lower"},
	{"hostcpu.page_row_share", "ratio", "lower"},
	{"hostcpu.exec_plan_share", "ratio", "lower"},
	{"hostcpu.tempdb_share", "ratio", "lower"},
	{"hostcpu.txn_share", "ratio", "lower"},
	{"hostcpu.bench_share", "ratio", "lower"},
	{"hostcpu.other_share", "ratio", "lower"},
}

// percentile returns the exact nearest-rank q-quantile of sorted samples.
func percentile(sorted []int64, q float64) int64 {
	if len(sorted) == 0 {
		return 0
	}
	i := int(q*float64(len(sorted))+0.999999) - 1
	if i < 0 {
		i = 0
	}
	if i >= len(sorted) {
		i = len(sorted) - 1
	}
	return sorted[i]
}

func medianFloat(v []float64) float64 {
	s := slices.Clone(v)
	slices.Sort(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// peakRSSMB reads this process's high-water resident set.
func peakRSSMB() float64 {
	b, err := os.ReadFile("/proc/self/status")
	if err != nil {
		return 0
	}
	for _, line := range strings.Split(string(b), "\n") {
		if strings.HasPrefix(line, "VmHWM:") {
			f := strings.Fields(line)
			if len(f) >= 2 {
				kb, _ := strconv.ParseFloat(f[1], 64)
				return kb / 1024
			}
		}
	}
	return 0
}
