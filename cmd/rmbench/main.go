// Command rmbench regenerates the tables and figures of the paper's
// evaluation (Sections 6 and Appendix B). Each experiment prints the
// rows or series the paper reports; see EXPERIMENTS.md for the mapping
// and the paper-vs-measured comparison. The experiments are the table
// exp.Experiments.
//
// Usage:
//
//	rmbench <experiment> [-seed N] [-quick] [-json]
//
// Flags may also come before the experiment. 'rmbench list' prints the
// experiments ('all' runs every one).
//
// With -json each experiment also writes BENCH_<experiment>.json:
// experiment name, seed, wall-clock, and a flat metric map (throughput,
// latency percentiles, fault counters).
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"strings"
	"time"

	"remotedb/internal/exp"
)

// benchFile is the document -json writes.
type benchFile struct {
	Experiment string             `json:"experiment"`
	Seed       int64              `json:"seed"`
	Quick      bool               `json:"quick"`
	WallMS     int64              `json:"wall_ms"`
	Metrics    map[string]float64 `json:"metrics"`
}

func main() {
	seed := flag.Int64("seed", 1, "simulation seed")
	quick := flag.Bool("quick", false, "reduced sizes for a fast pass")
	jsonOut := flag.Bool("json", false, "also write BENCH_<experiment>.json with machine-readable results")
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
	// Parse what follows the experiment as flags too; nothing else may.
	// The error is dropped: flag.CommandLine exits 2 on a bad flag.
	_ = flag.CommandLine.Parse(flag.Args()[1:])
	if flag.NArg() > 0 {
		flag.Usage()
		os.Exit(2)
	}
	start := time.Now()
	if err := run(name, *seed, *quick, *jsonOut); err != nil {
		fmt.Fprintf(os.Stderr, "rmbench %s: %v\n", name, err)
		os.Exit(1)
	}
	// The wall-clock stamp goes to stderr, so stdout is the same bytes
	// on every run of the same seed.
	fmt.Fprintf(os.Stderr, "\n[%s done in %v]\n", name, time.Since(start).Round(time.Millisecond))
}

// run executes one experiment (or "all", or "list"), writing
// BENCH_<name>.json after each experiment when jsonOut is set.
func run(name string, seed int64, quick, jsonOut bool) error {
	switch name {
	case "all":
		for _, e := range exp.Experiments {
			fmt.Printf("\n===== %s =====\n", e.Names[0])
			if err := run(e.Names[0], seed, quick, jsonOut); err != nil {
				return fmt.Errorf("%s: %w", e.Names[0], err)
			}
		}
		return nil
	case "list":
		for _, e := range exp.Experiments {
			fmt.Printf("  %-12s %s\n", strings.Join(e.Names, " "), e.About)
		}
		return nil
	}
	e, ok := lookup(name)
	if !ok {
		return fmt.Errorf("unknown experiment %q", name)
	}
	start := time.Now()
	rep := exp.NewReport(os.Stdout)
	if err := e.Run(seed, quick, rep); err != nil || !jsonOut {
		return err
	}
	buf, err := json.MarshalIndent(benchFile{name, seed, quick, time.Since(start).Milliseconds(), rep.Metrics}, "", "  ")
	if err != nil {
		return err
	}
	path := fmt.Sprintf("BENCH_%s.json", name)
	if err := os.WriteFile(path, append(buf, '\n'), 0o644); err != nil {
		return err
	}
	fmt.Printf("[wrote %s]\n", path)
	return nil
}

// lookup finds the experiment one of whose names is name.
func lookup(name string) (exp.Experiment, bool) {
	for _, e := range exp.Experiments {
		for _, n := range e.Names {
			if n == name {
				return e, true
			}
		}
	}
	return exp.Experiment{}, false
}
