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

// TestQuickReportsGolden runs the fast entries through the experiment
// table at seed 1 in their quick geometry, and compares each report —
// its text, then its metrics one per line in name order — with
// testdata/quick/<name>.txt, which holds what rmbench -quick printed.
// It sits in the external test package, which runs after the shape
// tests, so it adds nothing to the time they take to be reached.
func TestQuickReportsGolden(t *testing.T) {
	ran := 0
	for _, e := range exp.Experiments {
		name := e.Names[0]
		if !slices.Contains(goldenQuick, name) {
			continue
		}
		ran++
		t.Run(name, func(t *testing.T) {
			var buf bytes.Buffer
			rep := exp.NewReport(&buf)
			if err := e.Run(1, true, rep); err != nil {
				t.Fatal(err)
			}
			var names []string
			for n := range rep.Metrics {
				names = append(names, n)
			}
			sort.Strings(names)
			buf.WriteString("-- metrics --\n")
			for _, n := range names {
				fmt.Fprintf(&buf, "%s\t%s\n", n, strconv.FormatFloat(rep.Metrics[n], 'g', -1, 64))
			}
			path := filepath.Join("testdata", "quick", name+".txt")
			if *updateGolden {
				if err := os.WriteFile(path, buf.Bytes(), 0o644); err != nil {
					t.Fatal(err)
				}
				return
			}
			want, err := os.ReadFile(path)
			if err != nil {
				t.Fatalf("%v (run with -update-golden to create it)", err)
			}
			got, wantLines := strings.Split(buf.String(), "\n"), strings.Split(string(want), "\n")
			for i := 0; i < max(len(got), len(wantLines)); i++ {
				var g, w string
				if i < len(got) {
					g = got[i]
				}
				if i < len(wantLines) {
					w = wantLines[i]
				}
				if g != w {
					t.Fatalf("%s line %d:\n got: %q\nwant: %q", path, i+1, g, w)
				}
			}
		})
	}
	if ran != len(goldenQuick) {
		t.Errorf("ran %d of the %d golden entries: one is missing from the table", ran, len(goldenQuick))
	}
}
