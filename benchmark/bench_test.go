package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"math"
	"os"
	"os/exec"
	"path/filepath"
	"reflect"
	"regexp"
	"strings"
	"testing"
)

// A kernel never gives its bed back, so every benchmark run of these
// tests happens in a child process: the test binary re-executes itself
// with the run's config in the environment and prints what it measured.

const childEnv = "BENCHMARK_TEST_RUN"

type childConfig struct {
	Workload      string
	Fixed         int
	Trace         bool
	SpansDir      string
	BreakOracleAt int
}

type childOut struct {
	Sim       map[string]float64 // sim_* of the first phase
	EndToEnd  map[string]float64
	PerLayer  map[string]float64
	Counters  map[string]int64 // of the first phase
	Samples   map[string]int   // latency samples by op kind, first phase
	Attempted int64
	Failed    int64
	Faults    map[string]int64
}

func TestMain(m *testing.M) {
	spec := os.Getenv(childEnv)
	if spec == "" {
		os.Exit(m.Run())
	}
	var cc childConfig
	if err := json.Unmarshal([]byte(spec), &cc); err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(2)
	}
	rep, err := runWorkload(config{workload: cc.Workload, seed: 7, fixed: cc.Fixed, trace: cc.Trace, traceFirst: cc.Trace,
		spansDir: cc.SpansDir, breakOracleAt: cc.BreakOracleAt})
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
	ph := rep.phases[0]
	out := childOut{Sim: rep.simValues(ph), Counters: ph.counters, Samples: map[string]int{}, Faults: ph.faults}
	out.Attempted, out.Failed = rep.attempted()
	for kind, s := range ph.samples {
		out.Samples[kind] = len(s)
	}
	if cc.Trace {
		out.PerLayer = rep.perLayerValues()
	} else {
		out.EndToEnd = rep.endToEndValues()
	}
	if err := json.NewEncoder(os.Stdout).Encode(out); err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
}

func runChild(t *testing.T, cc childConfig) childOut {
	t.Helper()
	spec, err := json.Marshal(cc)
	if err != nil {
		t.Fatal(err)
	}
	cmd := exec.Command(os.Args[0])
	cmd.Env = append(os.Environ(), childEnv+"="+string(spec))
	cmd.Stderr = os.Stderr
	b, err := cmd.Output()
	if err != nil {
		t.Fatalf("child %+v: %v", cc, err)
	}
	var out childOut
	if err := json.Unmarshal(b, &out); err != nil {
		t.Fatalf("child %+v printed %q: %v", cc, b, err)
	}
	return out
}

// fixedWork is small enough for all four workloads to finish within a
// minute: virtual milliseconds per phase, or passes per TPC-H stream.
var fixedWork = map[string]int{"rangescan_ro": 30, "rangescan_rw": 60, "fileapi_mix": 20, "tpch_streams": 1}

func readSpans(t *testing.T, path string) []span {
	t.Helper()
	f, err := os.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	var spans []span
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		var s span
		if err := json.Unmarshal(sc.Bytes(), &s); err != nil {
			t.Fatalf("%s: %v", path, err)
		}
		spans = append(spans, s)
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}
	return spans
}

func TestWorkloads(t *testing.T) {
	for _, w := range workloadNames {
		w := w
		t.Run(w, func(t *testing.T) {
			first := runChild(t, childConfig{Workload: w, Fixed: fixedWork[w]})
			if first.Failed != 0 || first.Attempted == 0 {
				t.Fatalf("attempted %d, failed %d (%v)", first.Attempted, first.Failed, first.Faults)
			}
			for name, v := range first.EndToEnd {
				if name != "setup_s" && v <= 0 {
					t.Errorf("%s = %v, want a positive number", name, v)
				}
			}

			// The same seed again: every simulated number repeats exactly.
			again := runChild(t, childConfig{Workload: w, Fixed: fixedWork[w]})
			if !reflect.DeepEqual(first.Sim, again.Sim) {
				t.Errorf("same seed, different simulated metrics:\n%v\n%v", first.Sim, again.Sim)
			}
			if !reflect.DeepEqual(first.Counters, again.Counters) {
				t.Errorf("same seed, different counters:\n%v\n%v", first.Counters, again.Counters)
			}
			if !reflect.DeepEqual(first.Samples, again.Samples) {
				t.Errorf("same seed, different sample counts: %v vs %v", first.Samples, again.Samples)
			}

			// The same window with tracing on: the decorators charge no
			// virtual time, so the simulation must not notice them.
			dir := t.TempDir()
			traced := runChild(t, childConfig{Workload: w, Fixed: fixedWork[w], Trace: true, SpansDir: dir})
			if !reflect.DeepEqual(first.Sim, traced.Sim) {
				t.Errorf("tracing changed the simulated metrics:\n%v\n%v", first.Sim, traced.Sim)
			}
			if !reflect.DeepEqual(first.Counters, traced.Counters) {
				t.Errorf("tracing changed the counters:\n%v\n%v", first.Counters, traced.Counters)
			}
			if !reflect.DeepEqual(first.Samples, traced.Samples) {
				t.Errorf("tracing changed the sample counts: %v vs %v", first.Samples, traced.Samples)
			}

			// Every per-layer name is declared, and the two splits are whole.
			declared := map[string]bool{}
			for _, m := range perLayer {
				declared[m.name] = true
			}
			var traceSum, hostSum float64
			for name, v := range traced.PerLayer {
				if !declared[name] {
					t.Errorf("emitted per-layer metric %q is not declared", name)
				}
				if math.IsNaN(v) || math.IsInf(v, 0) {
					t.Errorf("%s = %v", name, v)
				}
				if strings.HasPrefix(name, "trace.") && strings.HasSuffix(name, "_sim_share") {
					traceSum += v
				}
				if strings.HasPrefix(name, "hostcpu.") {
					hostSum += v
				}
			}
			if len(traced.PerLayer) != len(perLayer) {
				t.Errorf("emitted %d per-layer metrics, declared %d", len(traced.PerLayer), len(perLayer))
			}
			if math.Abs(traceSum-1) > 0.01 {
				t.Errorf("trace.*_sim_share sum to %v, want 1", traceSum)
			}
			if math.Abs(hostSum-1) > 0.01 {
				t.Errorf("hostcpu.*_share sum to %v, want 1", hostSum)
			}

			// Span invariants: a child lies inside its parent on the same
			// proc, and no span's children outlast it (self time >= 0).
			spans := readSpans(t, filepath.Join(dir, w+".spans.jsonl"))
			if len(spans) == 0 {
				t.Fatal("traced run wrote no spans")
			}
			self := make([]int64, len(spans))
			ops := 0
			for i, s := range spans {
				if int(s.ID) != i || s.SimEnd < s.SimStart {
					t.Fatalf("span %d: id %d, [%d, %d]", i, s.ID, s.SimStart, s.SimEnd)
				}
				self[i] += s.SimEnd - s.SimStart
				if s.Parent < 0 {
					if strings.HasPrefix(s.Name, "op.") {
						ops++
					}
					continue
				}
				p := spans[s.Parent]
				if p.Proc != s.Proc || s.SimStart < p.SimStart || s.SimEnd > p.SimEnd {
					t.Fatalf("span %d %s [%d, %d] proc %d is not inside its parent %s [%d, %d] proc %d",
						i, s.Name, s.SimStart, s.SimEnd, s.Proc, p.Name, p.SimStart, p.SimEnd, p.Proc)
				}
				self[s.Parent] -= s.SimEnd - s.SimStart
			}
			for i, v := range self {
				if v < 0 {
					t.Fatalf("span %d %s has self time %d", i, spans[i].Name, v)
				}
			}
			if ops != int(traced.Attempted) {
				t.Errorf("%d op spans for %d ops", ops, traced.Attempted)
			}
		})
	}
}

// TestDeclaredNames keeps BENCHMARK.json and the tables in metrics.go equal.
func TestDeclaredNames(t *testing.T) {
	b, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	type decl struct{ Name, Unit, Better string }
	var bench struct {
		Workloads []struct{ Name string }
		EndToEnd  []decl `json:"end_to_end"`
		PerLayer  []decl `json:"per_layer"`
	}
	if err := json.Unmarshal(b, &bench); err != nil {
		t.Fatal(err)
	}
	var names []string
	for _, w := range bench.Workloads {
		names = append(names, w.Name)
	}
	if !reflect.DeepEqual(names, workloadNames) {
		t.Errorf("workloads: BENCHMARK.json has %v, the benchmark %v", names, workloadNames)
	}
	nameRE := regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	check := func(kind string, got []decl, want []metricDef) {
		if len(got) != len(want) {
			t.Errorf("%s: BENCHMARK.json declares %d metrics, metrics.go %d", kind, len(got), len(want))
			return
		}
		for i, m := range want {
			if !nameRE.MatchString(m.name) {
				t.Errorf("%s: bad metric name %q", kind, m.name)
			}
			if got[i] != (decl{m.name, m.unit, m.better}) {
				t.Errorf("%s[%d]: BENCHMARK.json has %+v, metrics.go %+v", kind, i, got[i], m)
			}
		}
	}
	check("end_to_end", bench.EndToEnd, endToEnd)
	check("per_layer", bench.PerLayer, perLayer)
}

// TestOracleViolationIsAFailedOp plants one wrong expectation in the
// byte check of fileapi_mix.
func TestOracleViolationIsAFailedOp(t *testing.T) {
	out := runChild(t, childConfig{Workload: "fileapi_mix", Fixed: 5, BreakOracleAt: 100})
	if out.Failed != 1 || out.Faults["oracle"] != 1 {
		t.Errorf("failed %d, faults %v; want exactly one failed op of class oracle", out.Failed, out.Faults)
	}
}
