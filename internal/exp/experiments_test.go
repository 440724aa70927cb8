package exp_test

import (
	"bytes"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"slices"
	"sort"
	"strconv"
	"strings"
	"testing"

	"remotedb/internal/exp"
)

var updateGolden = flag.Bool("update-golden", false, "rewrite testdata/quick/*.txt from this code")

// goldenQuick are the table entries fast enough in their quick geometry
// to pin whole: every printed byte and every metric.
var goldenQuick = []string{"tables", "fig27", "ablation", "evict", "iobatch", "plancache", "pushdown", "fig26", "parscan", "faults", "scrub"}

// TestExperiments runs every entry of the experiment table once, at
// seed 1 in its quick geometry, as parallel subtests. Each subtest
// checks its entry's claims, one nested subtest per claim. For the
// entries of goldenQuick a nested "golden" subtest also compares the
// report — its text, then its metrics one per line in name order — with
// testdata/quick/<name>.txt, which holds what rmbench -quick printed.
func TestExperiments(t *testing.T) {
	golden := 0
	for _, e := range exp.Experiments {
		name := e.Names[0]
		pinned := slices.Contains(goldenQuick, name)
		if pinned {
			golden++
		}
		t.Run(name, func(t *testing.T) {
			t.Parallel()
			var buf bytes.Buffer
			rep := exp.NewReport(&buf)
			if err := e.Run(1, true, rep); err != nil {
				t.Fatal(err)
			}
			for _, c := range e.Claims {
				t.Run(c.Name, func(t *testing.T) {
					if err := c.Check(rep.Metrics); err != nil {
						t.Error(err)
					}
				})
			}
			if t.Failed() {
				t.Logf("report:\n%s", buf.String())
			}
			if pinned {
				t.Run("golden", func(t *testing.T) {
					compareGolden(t, name, buf.String()+metricLines(rep.Metrics))
				})
			}
		})
	}
	if golden != len(goldenQuick) {
		t.Errorf("%d of the %d golden entries are in the table", golden, len(goldenQuick))
	}
}

// metricLines renders a report's metrics one per line in name order.
func metricLines(metrics map[string]float64) string {
	var names []string
	for n := range metrics {
		names = append(names, n)
	}
	sort.Strings(names)
	var sb strings.Builder
	sb.WriteString("-- metrics --\n")
	for _, n := range names {
		fmt.Fprintf(&sb, "%s\t%s\n", n, strconv.FormatFloat(metrics[n], 'g', -1, 64))
	}
	return sb.String()
}

// compareGolden compares got with testdata/quick/<name>.txt line by
// line, or with -update-golden rewrites the file.
func compareGolden(t *testing.T, name, got string) {
	path := filepath.Join("testdata", "quick", name+".txt")
	if *updateGolden {
		if err := os.WriteFile(path, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("%v (run with -update-golden to create it)", err)
	}
	gotLines, wantLines := strings.Split(got, "\n"), strings.Split(string(want), "\n")
	for i := 0; i < max(len(gotLines), len(wantLines)); i++ {
		var g, w string
		if i < len(gotLines) {
			g = gotLines[i]
		}
		if i < len(wantLines) {
			w = wantLines[i]
		}
		if g != w {
			t.Fatalf("%s line %d:\n got: %q\nwant: %q", path, i+1, g, w)
		}
	}
}

// TestClaimCheck: a claim fails when it does not hold, naming the values
// it read, and when it reads a metric the report did not record.
func TestClaimCheck(t *testing.T) {
	c := exp.Claim{Name: "ratio", Paper: "2×", Holds: func(m exp.Metric) bool { return m("a") >= 2*m("b") }}
	if err := c.Check(map[string]float64{"a": 4, "b": 2}); err != nil {
		t.Errorf("holding claim: %v", err)
	}
	if err := c.Check(map[string]float64{"a": 3, "b": 2}); err == nil || !strings.Contains(err.Error(), "a=3, b=2") {
		t.Errorf("failing claim: %v, want an error naming a=3, b=2", err)
	}
	if err := c.Check(map[string]float64{"a": 4}); err == nil || !strings.Contains(err.Error(), `"b"`) {
		t.Errorf("claim over a missing metric: %v, want an error naming \"b\"", err)
	}
}
