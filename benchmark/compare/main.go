// Command compare judges two sets of benchmark result files (written by
// the benchmark's -out flag) against the bounds in BENCHMARK.json. It
// prints one row per workload and end-to-end metric, lists the per-layer
// metrics that moved, and exits non-zero on a regression or a higher
// error rate.
//
//	go run -C benchmark ./compare -base /abs/dir/parent -new /abs/dir/change
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"sort"
)

type metricDecl struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound"`
}

type declaration struct {
	Workloads []struct {
		Name string `json:"name"`
	} `json:"workloads"`
	EndToEnd []metricDecl `json:"end_to_end"`
	PerLayer []metricDecl `json:"per_layer"`
}

type resultFile struct {
	Workload string `json:"workload"`
	Trace    bool   `json:"trace"`
	Result   struct {
		Attempted int64 `json:"attempted"`
		Failed    int64 `json:"failed"`
		Metrics   map[string]struct {
			Value float64 `json:"value"`
		} `json:"metrics"`
	} `json:"result"`
}

// side is one set of runs: values by workload and metric, and the ops
// attempted and failed by workload.
type side struct {
	values    map[string]map[string][]float64
	attempted map[string]int64
	failed    map[string]int64
}

func load(dir string) (*side, error) {
	files, err := filepath.Glob(filepath.Join(dir, "*.json"))
	if err != nil {
		return nil, err
	}
	if len(files) == 0 {
		return nil, fmt.Errorf("%s holds no result files", dir)
	}
	s := &side{values: map[string]map[string][]float64{}, attempted: map[string]int64{}, failed: map[string]int64{}}
	for _, f := range files {
		b, err := os.ReadFile(f)
		if err != nil {
			return nil, err
		}
		var r resultFile
		if err := json.Unmarshal(b, &r); err != nil {
			return nil, fmt.Errorf("%s: %w", f, err)
		}
		if r.Workload == "" {
			return nil, fmt.Errorf("%s: not a result file written by -out", f)
		}
		if s.values[r.Workload] == nil {
			s.values[r.Workload] = map[string][]float64{}
		}
		for name, m := range r.Result.Metrics {
			s.values[r.Workload][name] = append(s.values[r.Workload][name], m.Value)
		}
		s.attempted[r.Workload] += r.Result.Attempted
		s.failed[r.Workload] += r.Result.Failed
	}
	return s, nil
}

// quartiles returns the first quartile, the median and the third
// quartile the way Python's statistics.quantiles(v, n=4) does, which is
// what the driver of this repo's benchmark uses.
func quartiles(v []float64) (q1, med, q3 float64) {
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	n := len(s)
	if n == 1 {
		return s[0], s[0], s[0]
	}
	q := func(i int) float64 {
		j := i * (n + 1) / 4
		delta := i*(n+1) - j*4
		if j < 1 {
			j, delta = 1, 0
		}
		if j > n-1 {
			j, delta = n-1, 4
		}
		return (s[j-1]*float64(4-delta) + s[j]*float64(delta)) / 4
	}
	return q(1), q(2), q(3)
}

func relSpread(v []float64) float64 {
	q1, med, q3 := quartiles(v)
	if med == 0 {
		return 0
	}
	return (q3 - q1) / math.Abs(med)
}

// worsening returns by what share of the base median the new median is
// worse (negative: better).
func worsening(m metricDecl, base, cur float64) float64 {
	if base == 0 {
		return 0
	}
	d := (cur - base) / math.Abs(base)
	if m.Better == "higher" {
		d = -d
	}
	return d
}

func main() {
	baseDir := flag.String("base", "", "directory of result files of the parent commit")
	newDir := flag.String("new", "", "directory of result files of the change")
	declPath := flag.String("benchmark", "../BENCHMARK.json", "the declaration with the bounds")
	flag.Parse()
	if *baseDir == "" || *newDir == "" {
		fmt.Fprintln(os.Stderr, "usage: compare -base DIR -new DIR [-benchmark BENCHMARK.json]")
		os.Exit(2)
	}
	fail := func(err error) {
		fmt.Fprintln(os.Stderr, "compare:", err)
		os.Exit(2)
	}
	b, err := os.ReadFile(*declPath)
	if err != nil {
		fail(err)
	}
	var decl declaration
	if err := json.Unmarshal(b, &decl); err != nil {
		fail(fmt.Errorf("%s: %w", *declPath, err))
	}
	base, err := load(*baseDir)
	if err != nil {
		fail(err)
	}
	cur, err := load(*newDir)
	if err != nil {
		fail(err)
	}

	regressed := false
	fmt.Printf("%-13s %-24s %-5s %14s %14s %14s %3s | %14s %14s %14s %3s | %8s %6s  %s\n",
		"workload", "metric", "unit", "base q1", "base median", "base q3", "n", "new q1", "new median", "new q3", "n", "worse by", "bound", "verdict")
	for _, w := range decl.Workloads {
		for _, m := range decl.EndToEnd {
			bv, cv := base.values[w.Name][m.Name], cur.values[w.Name][m.Name]
			if len(bv) == 0 || len(cv) == 0 {
				continue
			}
			bq1, bmed, bq3 := quartiles(bv)
			cq1, cmed, cq3 := quartiles(cv)
			worse := worsening(m, bmed, cmed)
			verdict := "same"
			switch {
			case math.Max(relSpread(bv), relSpread(cv)) > m.Bound:
				verdict = "unresolved (spread exceeds the bound)"
			case worse > m.Bound:
				verdict = "WORSE"
				regressed = true
			case worse < -m.Bound:
				verdict = "better"
			}
			fmt.Printf("%-13s %-24s %-5s %14.4f %14.4f %14.4f %3d | %14.4f %14.4f %14.4f %3d | %+7.2f%% %5.1f%%  %s\n",
				w.Name, m.Name, m.Unit, bq1, bmed, bq3, len(bv), cq1, cmed, cq3, len(cv), 100*worse, 100*m.Bound, verdict)
		}
		if base.attempted[w.Name] > 0 && cur.attempted[w.Name] > 0 {
			br := float64(base.failed[w.Name]) / float64(base.attempted[w.Name])
			cr := float64(cur.failed[w.Name]) / float64(cur.attempted[w.Name])
			verdict := "same"
			if cr > br {
				verdict = "WORSE"
				regressed = true
			} else if cr < br {
				verdict = "better"
			}
			fmt.Printf("%-13s %-24s failed/attempted: base %d/%d, new %d/%d  %s\n", w.Name, "error_rate",
				base.failed[w.Name], base.attempted[w.Name], cur.failed[w.Name], cur.attempted[w.Name], verdict)
		}
	}

	// A layer metric moved when the medians differ by more than 5% of the
	// base and, where both sides hold enough runs to have quartiles, the
	// two quartile ranges do not overlap.
	fmt.Println("\nper-layer metrics that moved (traced runs):")
	moved := 0
	for _, w := range decl.Workloads {
		for _, m := range decl.PerLayer {
			bv, cv := base.values[w.Name][m.Name], cur.values[w.Name][m.Name]
			if len(bv) == 0 || len(cv) == 0 {
				continue
			}
			bq1, bmed, bq3 := quartiles(bv)
			cq1, cmed, cq3 := quartiles(cv)
			if math.Abs(cmed-bmed) <= 0.05*math.Abs(bmed) {
				continue
			}
			if len(bv) >= 4 && len(cv) >= 4 && cq1 <= bq3 && bq1 <= cq3 {
				continue
			}
			moved++
			change := "from 0"
			if bmed != 0 {
				change = fmt.Sprintf("%+.1f%%", 100*(cmed-bmed)/math.Abs(bmed))
			}
			fmt.Printf("  %-13s %-32s %-6s %14.4f -> %14.4f  (%s, %s is better)\n", w.Name, m.Name, m.Unit, bmed, cmed, change, m.Better)
		}
	}
	if moved == 0 {
		fmt.Println("  none")
	}
	if regressed {
		os.Exit(1)
	}
}
