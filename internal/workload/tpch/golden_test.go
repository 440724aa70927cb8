package tpch

import (
	"crypto/sha256"
	"flag"
	"fmt"
	"os"
	"strings"
	"testing"

	"remotedb/internal/engine"
	"remotedb/internal/engine/exec"
	"remotedb/internal/engine/row"
	"remotedb/internal/sim"
)

var updateGolden = flag.Bool("update-golden", false, "rewrite testdata/golden_digests.txt from this run")

const goldenPath = "testdata/golden_digests.txt"

// digest runs a query's final stage and hashes what it returns: the
// output schema's column names, then row.Encode of every row in order.
func digest(ctx *exec.Ctx, db *DB, q Query) (string, error) {
	b, err := q.Final(ctx, db)
	if err != nil {
		return "", err
	}
	rows, err := db.Planner.Stream(ctx, b)
	if err != nil {
		return "", err
	}
	defer rows.Close()
	h := sha256.New()
	sch := rows.Schema()
	for _, col := range sch.Columns {
		fmt.Fprintf(h, "%s\x00", col.Name)
	}
	var img []byte
	for {
		t, ok, err := rows.Next()
		if err != nil {
			return "", err
		}
		if !ok {
			break
		}
		if img, err = row.Encode(img[:0], sch, t); err != nil {
			return "", err
		}
		h.Write(img)
	}
	return fmt.Sprintf("%x", h.Sum(nil)), rows.Close()
}

// TestGoldenResultDigests pins every query's result, row for row, at
// DOP 1 and DOP 4 under the default grant, and the two spilling queries
// again under a 128 KiB grant. The file was generated before needed-
// column pruning went in; a change to what a query returns, or to the
// order it returns it in, fails here. Runs under -short too.
func TestGoldenResultDigests(t *testing.T) {
	var got []string
	rig(t, 0.01, func(p *sim.Proc, eng *engine.Engine, db *DB) {
		run := func(q Query, dop int, grant string) {
			ctx := eng.NewCtx(p)
			ctx.DOP = dop
			d, err := digest(ctx, db, q)
			if err != nil {
				t.Errorf("Q%d dop=%d grant=%s: %v", q.ID, dop, grant, err)
			}
			got = append(got, fmt.Sprintf("q%02d dop=%d grant=%s %s", q.ID, dop, grant, d))
		}
		for _, q := range Queries() {
			run(q, 1, "default")
			run(q, 4, "default")
		}
		eng.Grant = 128 << 10
		for _, id := range []int{10, 18} {
			run(QueryByID(id), 1, "128K")
			run(QueryByID(id), 4, "128K")
		}
	})
	text := strings.Join(got, "\n") + "\n"
	if *updateGolden {
		if err := os.WriteFile(goldenPath, []byte(text), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(goldenPath)
	if err != nil {
		t.Fatal(err)
	}
	wantLines := strings.Split(strings.TrimSuffix(string(want), "\n"), "\n")
	if len(wantLines) != len(got) {
		t.Fatalf("%d digests, golden file has %d", len(got), len(wantLines))
	}
	for i := range got {
		if got[i] != wantLines[i] {
			t.Errorf("digest moved:\n  got  %s\n  want %s", got[i], wantLines[i])
		}
	}
}
