// Command rmbench regenerates the tables and figures of the paper's
// evaluation (Sections 6 and Appendix B). Each experiment prints the
// rows or series the paper reports; see EXPERIMENTS.md for the mapping
// and the paper-vs-measured comparison. The experiments are the table
// exp.Experiments.
//
// Usage:
//
//	rmbench <experiment> [-seed N] [-quick]
//
// Flags may also come before the experiment. 'rmbench list' prints the
// experiments ('all' runs every one).
//
// After its rows each experiment prints its metrics, one per line in
// name order, and whether each of its claims held (exp.Experiment's
// Summary). rmbench exits 1 if a claim failed. At -quick and seed 1 an
// experiment's stdout is its golden file,
// internal/exp/testdata/quick/<experiment>.txt.
package main

import (
	"flag"
	"fmt"
	"os"
	"strings"
	"time"

	"remotedb/internal/exp"
)

func main() {
	seed := flag.Int64("seed", 1, "simulation seed")
	quick := flag.Bool("quick", false, "reduced sizes for a fast pass")
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
	held, err := run(name, *seed, *quick)
	if err != nil {
		fmt.Fprintf(os.Stderr, "rmbench %s: %v\n", name, err)
		os.Exit(1)
	}
	// The wall-clock stamp goes to stderr, so stdout is the same bytes
	// on every run of the same seed.
	fmt.Fprintf(os.Stderr, "\n[%s done in %v]\n", name, time.Since(start).Round(time.Millisecond))
	if !held {
		fmt.Fprintf(os.Stderr, "rmbench %s: a claim failed\n", name)
		os.Exit(1)
	}
}

// run executes one experiment (or "all", or "list") and says whether
// every claim it checked held.
func run(name string, seed int64, quick bool) (bool, error) {
	switch name {
	case "all":
		held := true
		for _, e := range exp.Experiments {
			fmt.Printf("\n===== %s =====\n", e.Names[0])
			ok, err := run(e.Names[0], seed, quick)
			if err != nil {
				return false, fmt.Errorf("%s: %w", e.Names[0], err)
			}
			held = held && ok
		}
		return held, nil
	case "list":
		for _, e := range exp.Experiments {
			fmt.Printf("  %-12s %s\n", strings.Join(e.Names, " "), e.About)
		}
		return true, nil
	}
	e, ok := lookup(name)
	if !ok {
		return false, fmt.Errorf("unknown experiment %q", name)
	}
	rep := exp.NewReport(os.Stdout)
	if err := e.Run(seed, quick, rep); err != nil {
		return false, err
	}
	summary, held := e.Summary(rep.Metrics)
	fmt.Print(summary)
	return held, nil
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
