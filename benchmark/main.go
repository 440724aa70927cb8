// Command benchmark is the repo's benchmark: four closed-loop workloads,
// end-to-end metrics on the virtual and the wall clock, and per-layer
// metrics from counters, spans, a CPU profile and probes. BENCHMARK.json
// at the root of the repo declares the names; README.md explains them.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"os/exec"
	"strconv"
	"strings"
)

// result is the last line of standard output.
type result struct {
	Correct   bool                   `json:"correct"`
	Attempted int64                  `json:"attempted"`
	Failed    int64                  `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// resultFile is what -out writes: the result plus what produced it, so
// that benchmark/compare can group files without parsing their names.
type resultFile struct {
	Workload string  `json:"workload"`
	Seed     int64   `json:"seed"`
	Seconds  float64 `json:"seconds"`
	Fixed    int     `json:"fixed"`
	Trace    bool    `json:"trace"`
	Result   result  `json:"result"`
}

func main() {
	var cfg config
	var trace int
	var outDir string
	flag.StringVar(&cfg.workload, "workload", "", "one of "+strings.Join(workloadNames, ", ")+", or all (one child process each)")
	flag.Int64Var(&cfg.seed, "seed", 1, "seed of the benchmark's PRNGs and of the simulation kernel")
	flag.Float64Var(&cfg.seconds, "seconds", 15, "wall seconds to measure")
	flag.IntVar(&cfg.fixed, "fixed", 0, "measure fixed work instead: virtual milliseconds per phase (passes per stream for tpch_streams); simulated numbers then repeat exactly")
	flag.IntVar(&trace, "trace", 0, "1: per-layer run (spans, CPU profile, probes); 0: end-to-end run")
	flag.StringVar(&cfg.spansDir, "spans", ".bench_out", "traced run: directory for <workload>.spans.jsonl")
	flag.StringVar(&outDir, "out", "", "also write the result to <out>/<workload>.seed<N>.trace<T>.json for benchmark/compare")
	flag.BoolVar(&cfg.setupOnly, "setup-only", false, "set up, print the seconds it took, and exit (an end-to-end run starts two of these)")
	flag.Parse()
	cfg.trace = trace != 0
	if flag.NArg() > 0 || cfg.workload == "" {
		fmt.Fprintln(os.Stderr, "usage: benchmark --workload <name|all> --seed <n> --seconds <s> --trace <0|1>")
		flag.PrintDefaults()
		os.Exit(2)
	}
	if cfg.workload == "all" {
		os.Exit(runAll())
	}
	fatal := func(err error) {
		fmt.Fprintln(os.Stderr, "benchmark:", err)
		os.Exit(1)
	}
	rep, err := runWorkload(cfg)
	if err != nil {
		fatal(err)
	}
	if cfg.setupOnly {
		fmt.Println(rep.setupS[0])
		return
	}
	if !cfg.trace { // setup_s is an end-to-end metric
		for i := 0; i < 2; i++ {
			s, err := childSetup(cfg)
			if err != nil {
				fatal(fmt.Errorf("set-up child: %w", err))
			}
			rep.setupS = append(rep.setupS, s)
		}
	}
	defs, values := endToEnd, rep.endToEndValues()
	if cfg.trace {
		defs, values = perLayer, rep.perLayerValues()
	}
	fmt.Print(rep.humanReport(values, defs))
	res := result{Metrics: map[string]metricValue{}}
	res.Attempted, res.Failed = rep.attempted()
	res.Correct = res.Failed == 0
	for _, m := range defs {
		res.Metrics[m.name] = metricValue{values[m.name], m.unit}
	}
	line, err := json.Marshal(res)
	if err != nil {
		fatal(err)
	}
	if outDir != "" {
		if err := writeResultFile(outDir, cfg, res); err != nil {
			fatal(err)
		}
	}
	fmt.Println(string(line))
}

// childSetup runs set-up once more in a process of its own and returns
// the seconds it took there.
func childSetup(cfg config) (float64, error) {
	cmd := exec.Command(os.Args[0], "--workload", cfg.workload, "--seed", strconv.FormatInt(cfg.seed, 10), "--setup-only")
	cmd.Stderr = os.Stderr
	out, err := cmd.Output()
	if err != nil {
		return 0, err
	}
	return strconv.ParseFloat(strings.TrimSpace(string(out)), 64)
}

func writeResultFile(dir string, cfg config, res result) error {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	b, err := json.MarshalIndent(resultFile{cfg.workload, cfg.seed, cfg.seconds, cfg.fixed, cfg.trace, res}, "", " ")
	if err != nil {
		return err
	}
	t := 0
	if cfg.trace {
		t = 1
	}
	return os.WriteFile(fmt.Sprintf("%s/%s.seed%d.trace%d.json", dir, cfg.workload, cfg.seed, t), b, 0o644)
}

// runAll runs every workload in a child process of its own (a kernel
// never gives its bed back, and peak RSS is per process) and prints the
// results as one JSON object keyed by workload.
func runAll() int {
	merged := map[string]json.RawMessage{}
	code := 0
	for _, w := range workloadNames {
		args := []string{"--workload", w}
		flag.Visit(func(f *flag.Flag) {
			if f.Name != "workload" {
				args = append(args, "--"+f.Name+"="+f.Value.String())
			}
		})
		cmd := exec.Command(os.Args[0], args...)
		cmd.Stderr = os.Stderr
		out, err := cmd.Output()
		lines := strings.Split(strings.TrimSpace(string(out)), "\n")
		fmt.Println(strings.Join(lines[:len(lines)-1], "\n"))
		if err != nil {
			fmt.Fprintf(os.Stderr, "benchmark: %s: %v\n", w, err)
			code = 1
			continue
		}
		merged[w] = json.RawMessage(lines[len(lines)-1])
	}
	line, err := json.Marshal(merged)
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchmark:", err)
		return 1
	}
	fmt.Println(string(line))
	return code
}
