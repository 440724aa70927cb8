package main

import (
	"bytes"
	"fmt"
	"path/filepath"
	"runtime"
	"runtime/pprof"
	"slices"
	"strings"
	"syscall"
	"time"
)

// config is one invocation.
type config struct {
	workload string
	seed     int64
	// seconds is the wall time measured. With trace on it is split in
	// two: an untraced phase for the counters, a traced one for the
	// spans and the CPU profile.
	seconds float64
	// fixed > 0 replaces the wall-clock window by fixed work, so that
	// every simulated number repeats exactly: that many virtual
	// milliseconds per phase (passes per stream for tpch_streams).
	fixed int
	trace bool
	// setupOnly stops after set-up. An end-to-end run starts two such
	// children and reports the median of the three set-up times: a
	// kernel never gives its bed back, so further set-ups in this
	// process would be charged to its peak RSS.
	setupOnly bool
	spansDir  string // traced run: where <workload>.spans.jsonl goes ("" = nowhere)

	traceFirst    bool // tests: trace the first phase instead of the second
	breakOracleAt int  // tests: see fileapi.breakOracleAt
}

// run is the state of one measurement on one bed.
type run struct {
	cfg     config
	w       workload
	prm     params
	bed     *bed
	tr      *tracer
	clients []*client
	notes   []string
}

func (r *run) notef(format string, a ...any) { r.notes = append(r.notes, fmt.Sprintf(format, a...)) }

// phase is one measured window (or, for tpch_streams, one set of whole
// passes) and what was observed over it.
type phase struct {
	traced    bool
	simWindow time.Duration // fixed virtual window; 0 = until wallLimit
	passes    int           // tpch_streams with fixed work: passes per stream
	wallLimit time.Duration

	wallStart time.Time
	simStart  time.Duration
	stopping  bool // clients stop at their next pass boundary
	closed    bool // the window's end has been recorded

	samples   map[string][]int64 // virtual ns by op kind, ops that succeeded inside the window
	attempted int64              // every op that returned, drain included
	failed    int64
	faults    map[string]int64
	firstErrs []string

	// Recorded at the window's end.
	simSpan  time.Duration
	wall     time.Duration
	counters map[string]int64 // difference over the window
	alloc    uint64
	cpuUser  time.Duration
	cpuSys   time.Duration
	rssMB    float64
}

// fail counts a failed op under its fault class and keeps the first few
// messages: a failed op is never dropped.
func (ph *phase) fail(err error) {
	class := faultClass(err)
	ph.failed++
	ph.faults[class]++
	if len(ph.firstErrs) < 5 {
		ph.firstErrs = append(ph.firstErrs, "["+class+"] "+err.Error())
	}
}

func (ph *phase) ops() int64 {
	var n int64
	for _, s := range ph.samples {
		n += int64(len(s))
	}
	return n
}

// allSorted returns every latency sample of the phase, sorted.
func (ph *phase) allSorted() []int64 {
	var all []int64
	for _, s := range ph.samples {
		all = append(all, s...)
	}
	slices.Sort(all)
	return all
}

func rusage() (user, sys time.Duration) {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0, 0
	}
	return time.Duration(ru.Utime.Nano()), time.Duration(ru.Stime.Nano())
}

// runPhase starts the clients, lets them run until the phase's limit,
// and waits until each has finished the op (or pass) it was in.
func (r *run) runPhase(p *Proc, ph *phase) {
	ph.samples = map[string][]int64{}
	ph.faults = map[string]int64{}
	r.tr.on = ph.traced
	runtime.GC()
	before := r.bed.counters()
	var m0 runtime.MemStats
	runtime.ReadMemStats(&m0)
	u0, s0 := rusage()
	ph.wallStart, ph.simStart = time.Now(), p.Now()

	closeWindow := func(p *Proc) {
		ph.closed = true
		ph.wall = time.Since(ph.wallStart)
		ph.simSpan = p.Now() - ph.simStart
		if ph.simWindow > 0 {
			ph.simSpan = ph.simWindow
		}
		var m1 runtime.MemStats
		runtime.ReadMemStats(&m1)
		ph.alloc = m1.TotalAlloc - m0.TotalAlloc
		u1, s1 := rusage()
		ph.cpuUser, ph.cpuSys = u1-u0, s1-s0
		ph.rssMB = peakRSSMB()
		ph.counters = r.bed.counters()
		for k, v := range before {
			ph.counters[k] -= v
		}
	}
	// finished is asked before every op.
	passLen := r.prm.passLen
	finished := func(p *Proc, c *client) bool {
		if passLen > 1 {
			if c.ops%passLen != 0 {
				return false
			}
			if ph.passes > 0 {
				return c.ops == ph.passes*passLen
			}
			if time.Since(ph.wallStart) >= ph.wallLimit {
				ph.stopping = true
			}
			return ph.stopping
		}
		if !ph.stopping {
			if ph.simWindow > 0 {
				ph.stopping = p.Now()-ph.simStart >= ph.simWindow
			} else {
				ph.stopping = time.Since(ph.wallStart) >= ph.wallLimit
			}
			if ph.stopping {
				closeWindow(p)
			}
		}
		return ph.stopping
	}

	wg := newWaitGroup(p)
	wg.Add(len(r.clients))
	for _, c := range r.clients {
		c := c
		c.ops = 0
		spawn(p, fmt.Sprintf("client%d", c.id), func(cp *Proc) {
			defer wg.Done()
			for !finished(cp, c) {
				t0 := cp.Now()
				kind, err := r.w.op(cp, r, c)
				c.ops++
				ph.attempted++
				end := cp.Now()
				switch {
				case err != nil:
					ph.fail(err)
				case !ph.closed && (ph.simWindow == 0 || end-ph.simStart <= ph.simWindow):
					ph.samples[kind] = append(ph.samples[kind], int64(end-t0))
				}
			}
		})
	}
	wg.Wait(p)
	if !ph.closed {
		closeWindow(p)
	}
	r.tr.on = false
}

// warm runs the clients for a virtual window without measuring. A failed
// op aborts set-up.
func (r *run) warm(p *Proc, d time.Duration) error {
	ph := &phase{simWindow: d}
	r.runPhase(p, ph)
	if ph.failed > 0 {
		return fmt.Errorf("warm-up: %d of %d ops failed, first: %s", ph.failed, ph.attempted, ph.firstErrs[0])
	}
	return nil
}

// report is what one invocation measured.
type report struct {
	cfg       config
	setupS    []float64
	phases    []*phase
	summary   traceSummary
	host      map[string]float64 // hostcpu shares
	probes    map[string]float64
	createSim time.Duration
	cores     int
	nicBps    float64
	notes     []string
	tailPct   float64
	spansPath string
}

func (rep *report) attempted() (attempted, failed int64) {
	for _, ph := range rep.phases {
		attempted += ph.attempted
		failed += ph.failed
	}
	return
}

// phase returns the traced or the untraced phase (nil if the run had none).
func (rep *report) phase(traced bool) *phase {
	for _, ph := range rep.phases {
		if ph.traced == traced {
			return ph
		}
	}
	return nil
}

// processStart is when this process began: set-up is timed from here.
var processStart = time.Now()

// runWorkload sets the workload up, measures on that bed and returns
// what it saw. A set-up failure is an error; failed ops are counted in
// the report.
func runWorkload(cfg config) (*report, error) {
	rep := &report{cfg: cfg}
	err := runSim(cfg.seed, func(p *Proc) error {
		w, err := newWorkload(cfg)
		if err != nil {
			return err
		}
		r := &run{cfg: cfg, w: w, prm: w.params(), tr: newTracer()}
		for c := 0; c < r.prm.clients; c++ {
			r.clients = append(r.clients, &client{id: c, rng: newRand(cfg.seed*1000003 + int64(c))})
		}
		if r.bed, err = newBed(p, r.prm.bed, r.tr); err != nil {
			return err
		}
		defer r.bed.close(p)
		if err := w.load(p, r); err != nil {
			return err
		}
		rep.setupS = append(rep.setupS, time.Since(processStart).Seconds())
		if cfg.setupOnly {
			return nil
		}
		return r.measure(p, rep)
	})
	if err != nil {
		return nil, fmt.Errorf("%s: %w", cfg.workload, err)
	}
	return rep, nil
}

// measure runs the phases, the probes and the post-run check.
func (r *run) measure(p *Proc, rep *report) error {
	cfg := r.cfg
	newPhase := func(traced bool, share float64) *phase {
		ph := &phase{traced: traced}
		switch {
		case cfg.fixed > 0 && r.prm.fixedUnit > 0:
			ph.simWindow = time.Duration(cfg.fixed) * r.prm.fixedUnit
		case cfg.fixed > 0:
			ph.passes = cfg.fixed
		default:
			ph.wallLimit = time.Duration(cfg.seconds * share * float64(time.Second))
		}
		return ph
	}
	switch {
	case !cfg.trace:
		rep.phases = []*phase{newPhase(false, 1)}
	case cfg.traceFirst:
		rep.phases = []*phase{newPhase(true, 1)}
	default:
		rep.phases = []*phase{newPhase(false, 0.5), newPhase(true, 0.5)}
	}
	for _, ph := range rep.phases {
		var prof bytes.Buffer
		if ph.traced {
			if err := pprof.StartCPUProfile(&prof); err != nil {
				return fmt.Errorf("cpu profile: %w", err)
			}
		}
		r.runPhase(p, ph)
		if ph.traced {
			pprof.StopCPUProfile()
			rep.summary = r.tr.summarize()
			host, err := hostShares(prof.Bytes())
			if err != nil {
				r.notef("host CPU split unavailable: %v", err)
			}
			rep.host = host
		}
	}
	if cfg.trace {
		rep.probes = map[string]float64{}
		if err := r.bed.probes(p, rep.probes); err != nil {
			r.notef("probe failed: %v", err)
		}
		if cfg.spansDir != "" {
			rep.spansPath = filepath.Join(cfg.spansDir, cfg.workload+".spans.jsonl")
			if err := r.tr.writeSpans(rep.spansPath); err != nil {
				return fmt.Errorf("write spans: %w", err)
			}
		}
	}
	if err := r.w.verify(p, r); err != nil {
		// The run's outputs were wrong as a whole: count it as a failed op
		// so that the result reads incorrect.
		last := rep.phases[len(rep.phases)-1]
		last.attempted++
		last.fail(fmt.Errorf("post-run check: %w", err))
	}
	rep.createSim = r.bed.createSim
	rep.cores, rep.nicBps = r.bed.dbCores(), r.bed.nicBytesPerSec()
	rep.notes = r.notes
	rep.tailPct = r.prm.tailPct
	return nil
}

// simValues computes the virtual-clock end-to-end metrics of a phase.
func (rep *report) simValues(ph *phase) map[string]float64 {
	all := ph.allSorted()
	return map[string]float64{
		"sim_ops_per_s":   ratio(float64(len(all)), ph.simSpan.Seconds()),
		"sim_lat_p50_us":  float64(percentile(all, 0.50)) / 1e3,
		"sim_lat_tail_us": float64(percentile(all, rep.tailPct)) / 1e3,
	}
}

// endToEndValues computes the end-to-end metrics from the untraced phase.
func (rep *report) endToEndValues() map[string]float64 {
	ph := rep.phase(false)
	ops := float64(ph.ops())
	out := rep.simValues(ph)
	out["host_ops_per_s"] = ratio(ops, ph.wall.Seconds())
	out["host_alloc_bytes_per_op"] = ratio(float64(ph.alloc), ops)
	out["peak_rss_mb"] = ph.rssMB
	out["setup_s"] = medianFloat(rep.setupS)
	return out
}

// spanPct returns a percentile, in virtual µs, over the spans of the
// given names.
func (s *traceSummary) spanPct(q float64, names ...string) float64 {
	var d []int64
	for _, n := range names {
		d = append(d, s.durs[n]...)
	}
	slices.Sort(d)
	return float64(percentile(d, q)) / 1e3
}

func (s *traceSummary) sum(name string) (ns int64) {
	for _, d := range s.durs[name] {
		ns += d
	}
	return ns
}

// coreRoles are the file roles backed by core.File.
var coreRoles = []string{"bpext", "temp", "raw"}

func roleSpans(roles []string, ops ...string) []string {
	var out []string
	for _, r := range roles {
		for _, op := range ops {
			out = append(out, "vfs."+r+"."+op)
		}
	}
	return out
}

// perLayerValues computes every per-layer metric. Counter metrics come
// from the untraced phase; spans, seam tallies and the CPU profile from
// the traced phase; probes from the warm bed afterwards. A metric whose
// layer the workload's bed lacks reads 0.
func (rep *report) perLayerValues() map[string]float64 {
	out := map[string]float64{}
	for _, m := range perLayer {
		out[m.name] = 0
	}
	for k, v := range rep.probes {
		out[k] = v
	}

	un, tr := rep.phase(false), rep.phase(true)
	if un == nil { // tests trace the only phase
		un = tr
	}
	c := func(k string) float64 { return float64(un.counters[k]) }
	ops := float64(un.ops())
	per := func(k string) float64 { return ratio(c(k), ops) }
	simS := un.simSpan.Seconds()

	out["sim.virtual_per_host"] = ratio(simS, un.wall.Seconds())
	out["sim.host_sys_share"] = ratio(un.cpuSys.Seconds(), (un.cpuUser + un.cpuSys).Seconds())
	out["nic.db_rx_util"] = ratio(c("nic.rx"), rep.nicBps*simS)
	out["nic.db_tx_util"] = ratio(c("nic.tx"), rep.nicBps*simS)
	out["disk.hdd_reads_per_op"] = per("disk.reads")
	out["disk.hdd_writes_per_op"] = per("disk.writes")
	out["disk.hdd_bytes_written_per_op"] = per("disk.wbytes")
	out["cluster.db_cpu_us_per_op"] = per("cpu.db") / 1e3
	out["cluster.db_cpu_util"] = ratio(c("cpu.db"), float64(rep.cores)*simS*1e9)
	out["cluster.donor_cpu_us_per_op"] = per("cpu.donor") / 1e3
	out["broker.grants"] = c("broker.grants")
	out["broker.renewals"] = c("broker.renewals")
	out["broker.create_sim_ms"] = float64(rep.createSim) / 1e6
	out["rmem.reads_per_op"] = per("rmem.reads")
	out["rmem.writes_per_op"] = per("rmem.writes")
	out["rmem.round_trips_per_op"] = per("rmem.rt")
	out["rmem.bytes_read_per_op"] = per("rmem.rbytes")
	out["rmem.bytes_written_per_op"] = per("rmem.wbytes")
	out["rmem.staging_waits_per_op"] = per("rmem.waits")
	out["rmem.staging_wait_us_per_op"] = per("rmem.waitns") / 1e3
	out["core.hedged_reads_per_op"] = per("core.hedged")
	out["core.hedge_win_ratio"] = ratio(c("core.wins"), c("core.hedged"))
	out["core.failovers_per_op"] = per("core.failover")
	out["core.corruptions"] = c("core.corrupt")
	out["core.brownouts"] = c("core.brown")
	out["core.quarantines"] = c("core.quar")
	out["core.proactive_migrations"] = c("core.migr")
	gets := c("buf.hits") + c("buf.exthits") + c("buf.diskreads")
	out["buffer.gets_per_op"] = ratio(gets, ops)
	out["buffer.hit_ratio"] = ratio(c("buf.hits"), gets)
	out["buffer.ext_hit_ratio"] = ratio(c("buf.exthits"), c("buf.exthits")+c("buf.diskreads"))
	out["buffer.disk_reads_per_op"] = per("buf.diskreads")
	out["buffer.evict_dirty_per_op"] = per("buf.evictdirty")
	out["buffer.ext_writes_per_op"] = per("buf.extwrites")
	out["buffer.writer_pages_per_op"] = per("buf.writer")
	out["buffer.readahead_pages_per_op"] = per("buf.ra")
	out["buffer.readahead_waste_ratio"] = ratio(c("buf.rawaste"), c("buf.ra"))
	out["txn.appends_per_op"] = per("txn.appends")
	out["txn.flushes_per_op"] = per("txn.flushes")
	out["txn.log_bytes_per_op"] = per("txn.bytes")
	out["plan.cache_hit_ratio"] = ratio(c("plan.hits"), c("plan.hits")+c("plan.misses"))
	out["exec.spilled_parts_per_op"] = per("exec.parts")
	out["exec.spilled_runs_per_op"] = per("exec.runs")
	out["tempdb.bytes_spilled_per_op"] = per("temp.spilled")
	out["tempdb.bytes_read_per_op"] = per("temp.read")
	for _, q := range tpchQueries {
		s := append([]int64(nil), un.samples[tpchKinds[q]]...)
		slices.Sort(s)
		out[fmt.Sprintf("exec.q%d_sim_ms", q)] = float64(percentile(s, 0.5)) / 1e6
	}
	for _, ph := range rep.phases {
		for class, n := range ph.faults {
			if class == "oracle" {
				class = "untyped" // a wrong output is no class of the fault taxonomy
			}
			out["fault."+class] += float64(n)
		}
	}
	if tr == nil {
		return out
	}

	s := &rep.summary
	tops := float64(tr.ops())
	out["core.read_sim_us_p50"] = s.spanPct(0.50, roleSpans(coreRoles, "read")...)
	out["core.read_sim_us_p99"] = s.spanPct(0.99, roleSpans(coreRoles, "read")...)
	out["core.readv_sim_us_p50"] = s.spanPct(0.50, roleSpans(coreRoles, "readv")...)
	out["core.readv_sim_us_p99"] = s.spanPct(0.99, roleSpans(coreRoles, "readv")...)
	out["core.write_sim_us_p50"] = s.spanPct(0.50, roleSpans(coreRoles, "write", "writev")...)
	out["core.write_sim_us_p99"] = s.spanPct(0.99, roleSpans(coreRoles, "write", "writev")...)
	var seamRead int64
	for _, n := range roleSpans(coreRoles, "read", "readv") {
		seamRead += s.bytes[n]
	}
	out["core.read_amplification"] = ratio(float64(tr.counters["rmem.rbytes"]), float64(seamRead))
	for _, role := range []string{"bpext", "temp", "data", "log"} {
		var calls, ns int64
		for _, n := range roleSpans([]string{role}, "read", "readv", "write", "writev") {
			calls += int64(len(s.durs[n]))
			ns += s.sum(n)
		}
		out["vfs."+role+".calls_per_op"] = ratio(float64(calls), tops)
		out["vfs."+role+".sim_us_per_op"] = ratio(float64(ns), tops) / 1e3
	}
	out["btree.scanrange100_sim_us_p50"] = s.spanPct(0.5, "btree.scanrange")
	out["btree.update_sim_us_p50"] = s.spanPct(0.5, "btree.update")
	out["txn.commit_sim_us_p50"] = s.spanPct(0.5, "txn.commit")
	out["txn.commit_sim_us_p99"] = s.spanPct(0.99, "txn.commit")
	for _, l := range []string{"engine", "btree", "txn", "core", "disk"} {
		out["trace."+l+"_sim_share"] = ratio(float64(s.selfByLayer[l]), float64(s.opTotal))
	}
	out["trace.detached_sim_us_per_op"] = ratio(float64(s.detached), tops) / 1e3
	if un != tr {
		out["trace.overhead_pct"] = 100 * (1 - ratio(ratio(tops, tr.wall.Seconds()), ratio(ops, un.wall.Seconds())))
	}
	for l, v := range rep.host {
		out["hostcpu."+l+"_share"] = v
	}
	return out
}

// humanReport renders everything measured, by name, with units.
func (rep *report) humanReport(values map[string]float64, defs []metricDef) string {
	var b strings.Builder
	fmt.Fprintf(&b, "workload %s  seed %d  trace %v\n", rep.cfg.workload, rep.cfg.seed, rep.cfg.trace)
	for i, ph := range rep.phases {
		kinds := make([]string, 0, len(ph.samples))
		for k := range ph.samples {
			kinds = append(kinds, fmt.Sprintf("%s=%d", k, len(ph.samples[k])))
		}
		slices.Sort(kinds)
		fmt.Fprintf(&b, "phase %d traced=%v: %d latency samples (%s), virtual %v, wall %v, attempted %d, failed %d\n",
			i, ph.traced, ph.ops(), strings.Join(kinds, " "), ph.simSpan, ph.wall.Round(time.Millisecond), ph.attempted, ph.failed)
		for _, e := range ph.firstErrs {
			fmt.Fprintf(&b, "  FAILED OP %s\n", e)
		}
	}
	fmt.Fprintf(&b, "set-up times (s): %.3f\n", rep.setupS)
	for _, n := range rep.notes {
		fmt.Fprintf(&b, "note: %s\n", n)
	}
	if rep.spansPath != "" {
		fmt.Fprintf(&b, "spans: %s\n", rep.spansPath)
	}
	for _, m := range defs {
		fmt.Fprintf(&b, "  %-34s %16.4f %s\n", m.name, values[m.name], m.unit)
	}
	if n := values["fault.untyped"]; n > 0 {
		fmt.Fprintf(&b, "!!! %v failed ops carry no class of the fault taxonomy (paper Table 1 contract broken); see FAILED OP above\n", n)
	}
	return b.String()
}
