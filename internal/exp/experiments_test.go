package exp_test

import (
	"bytes"
	"flag"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"remotedb/internal/exp"
)

var updateGolden = flag.Bool("update-golden", false, "rewrite testdata/quick/*.txt from this code")

// TestExperiments runs every entry of the experiment table once, at
// seed 1 in its quick geometry, as parallel subtests. Each subtest
// checks its entry's claims, one nested subtest per claim, and a nested
// "golden" subtest compares everything rmbench -quick prints for the
// entry — its report text, then its Summary (metrics and claim lines) —
// with testdata/quick/<name>.txt. Each entry logs its wall time (-v);
// the entries share the CPUs with whichever others run beside them, so
// the time is an upper bound on the entry's own. Per-entry peak RSS is
// not logged: the process's peak cannot be split between entries that
// run at once.
func TestExperiments(t *testing.T) {
	for _, e := range exp.Experiments {
		name := e.Names[0]
		t.Run(name, func(t *testing.T) {
			t.Parallel()
			var buf bytes.Buffer
			rep := exp.NewReport(&buf)
			start := time.Now()
			err := e.Run(1, true, rep)
			t.Logf("wall time %v", time.Since(start).Round(time.Millisecond))
			if err != nil {
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
			t.Run("golden", func(t *testing.T) {
				summary, _ := e.Summary(rep.Metrics)
				compareGolden(t, name, buf.String()+summary)
			})
		})
	}
}

// TestGoldenFilesMatchTable: testdata/quick holds one golden file per
// entry of the experiment table and nothing else, so a renamed or
// deleted entry cannot leave a stale file behind.
func TestGoldenFilesMatchTable(t *testing.T) {
	files, err := os.ReadDir(filepath.Join("testdata", "quick"))
	if err != nil {
		t.Fatal(err)
	}
	want := make(map[string]bool)
	for _, e := range exp.Experiments {
		want[e.Names[0]+".txt"] = true
	}
	for _, f := range files {
		if !want[f.Name()] {
			t.Errorf("testdata/quick/%s names no entry of the experiment table", f.Name())
		}
		delete(want, f.Name())
	}
	for f := range want {
		t.Errorf("testdata/quick/%s is missing (run TestExperiments with -update-golden)", f)
	}
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
