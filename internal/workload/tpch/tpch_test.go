package tpch

import (
	"fmt"
	"sort"
	"testing"
	"time"

	"remotedb/internal/cluster"
	"remotedb/internal/engine"
	"remotedb/internal/engine/buffer"
	"remotedb/internal/engine/exec"
	"remotedb/internal/engine/plan"
	"remotedb/internal/engine/row"
	"remotedb/internal/hw/disk"
	"remotedb/internal/sim"
	"remotedb/internal/vfs"
)

// rig loads a tiny TPC-H database on a null device.
func rig(t *testing.T, sf float64, fn func(p *sim.Proc, eng *engine.Engine, db *DB)) {
	t.Helper()
	k := newKernel(t, 1)
	t.Cleanup(k.Close) // the engine's background procs end with the test
	cfg := cluster.DefaultConfig()
	cfg.MemoryBytes = 1 << 30
	s := cluster.NewServer(k, "db", cfg)
	k.Go("t", func(p *sim.Proc) {
		ecfg := engine.DefaultConfig(16384)
		ecfg.Buffer = buffer.DefaultConfig(16384)
		ecfg.Buffer.WriterPeriod = 0
		ecfg.Buffer.PageAccessCPU = 0
		eng, err := engine.New(p, s, engine.Files{
			Data: vfs.NewDeviceFile("data", disk.NullDevice{DeviceName: "null"}),
			Log:  vfs.NewMemFile("log"),
			Temp: vfs.NewMemFile("temp"),
		}, ecfg)
		if err != nil {
			t.Error(err)
			return
		}
		db, err := Load(p, eng, sf)
		if err != nil {
			t.Error(err)
			return
		}
		fn(p, eng, db)
	})
	k.Run(100 * time.Hour)
}

func TestLoadCardinalities(t *testing.T) {
	rig(t, 0.01, func(p *sim.Proc, eng *engine.Engine, db *DB) {
		su, cu, pa, ps, or, li := Counts(0.01)
		checks := []struct {
			name string
			got  int64
			want int
		}{
			{"supplier", db.Supplier.Clustered.Entries, su},
			{"customer", db.Customer.Clustered.Entries, cu},
			{"part", db.Part.Clustered.Entries, pa},
			{"partsupp", db.PartSupp.Clustered.Entries, ps},
			{"orders", db.Orders.Clustered.Entries, or},
			{"lineitem", db.Lineitem.Clustered.Entries, li / or * or},
		}
		for _, c := range checks {
			if int(c.got) != c.want {
				t.Errorf("%s rows = %d, want %d", c.name, c.got, c.want)
			}
		}
	})
}

func TestAll22QueriesExecute(t *testing.T) {
	rig(t, 0.01, func(p *sim.Proc, eng *engine.Engine, db *DB) {
		for _, q := range Queries() {
			ctx := eng.NewCtx(p)
			if err := q.Run(ctx, db); err != nil {
				t.Errorf("%s failed: %v", q.Name, err)
			}
		}
	})
}

func TestSpillingQueriesSpillUnderSmallGrant(t *testing.T) {
	rig(t, 0.05, func(p *sim.Proc, eng *engine.Engine, db *DB) {
		eng.Grant = 128 << 10 // 128 KiB grant
		for _, id := range []int{10, 18} {
			ctx := eng.NewCtx(p)
			if err := QueryByID(id).Run(ctx, db); err != nil {
				t.Errorf("Q%d: %v", id, err)
				continue
			}
			if ctx.SpilledParts == 0 && ctx.SpilledRuns == 0 {
				t.Errorf("Q%d did not spill with a 128 KiB grant", id)
			}
		}
	})
}

// TestQueriesEquivalentAcrossDOP checks that every query returns the
// same number of rows serially and with parallel scans/aggregation.
func TestQueriesEquivalentAcrossDOP(t *testing.T) {
	rig(t, 0.01, func(p *sim.Proc, eng *engine.Engine, db *DB) {
		for _, q := range Queries() {
			counts := make(map[int]int64)
			for _, dop := range []int{1, 4} {
				ctx := eng.NewCtx(p)
				ctx.DOP = dop
				if err := q.Run(ctx, db); err != nil {
					t.Errorf("%s at DOP %d: %v", q.Name, dop, err)
					continue
				}
				counts[dop] = ctx.RowsOut
			}
			if counts[1] != counts[4] {
				t.Errorf("%s: DOP 1 returned %d rows, DOP 4 returned %d", q.Name, counts[1], counts[4])
			}
		}
	})
}

// TestSpillingEquivalentAcrossDOP re-runs the two spilling queries with
// a tiny grant at both DOPs: spilled and parallel plans must agree.
func TestSpillingEquivalentAcrossDOP(t *testing.T) {
	rig(t, 0.05, func(p *sim.Proc, eng *engine.Engine, db *DB) {
		eng.Grant = 128 << 10
		for _, id := range []int{10, 18} {
			var counts [2]int64
			for i, dop := range []int{1, 4} {
				ctx := eng.NewCtx(p)
				ctx.DOP = dop
				if err := QueryByID(id).Run(ctx, db); err != nil {
					t.Errorf("Q%d at DOP %d: %v", id, dop, err)
					continue
				}
				counts[i] = ctx.RowsOut
			}
			if counts[0] != counts[1] {
				t.Errorf("Q%d under spill: DOP 1 returned %d rows, DOP 4 returned %d", id, counts[0], counts[1])
			}
		}
	})
}

// TestRowLevelEquivalenceAcrossDOP streams a Q1-shaped plan at DOP 1
// and DOP 4 and compares the actual rows (floats rounded to 6
// significant digits: parallel aggregation merges partial sums in a
// different order, so the last ulp may differ).
func TestRowLevelEquivalenceAcrossDOP(t *testing.T) {
	rig(t, 0.01, func(p *sim.Proc, eng *engine.Engine, db *DB) {
		build := func() *plan.Builder {
			return plan.Scan(db.Lineitem).
				Where("shipdate<=19980902", []string{"shipdate"}, func(t row.Tuple) bool { return t[0].(int64) <= 19980902 }).
				GroupBy([]string{"returnflag", "linestatus"},
					exec.Agg{Fn: exec.AggSum, Col: "quantity", As: "sum_qty"},
					exec.Agg{Fn: exec.AggAvg, Col: "extendedprice", As: "avg_price"},
					exec.Agg{Fn: exec.AggCount, As: "n"},
				).
				OrderBy(exec.SortSpec{Col: "returnflag"}, exec.SortSpec{Col: "linestatus"})
		}
		render := func(dop int) []string {
			ctx := eng.NewCtx(p)
			ctx.DOP = dop
			rows, err := db.Planner.Stream(ctx, build())
			if err != nil {
				t.Fatalf("DOP %d: %v", dop, err)
			}
			var out []string
			for {
				tup, ok, err := rows.Next()
				if err != nil {
					t.Fatalf("DOP %d: %v", dop, err)
				}
				if !ok {
					break
				}
				s := ""
				for _, v := range tup {
					if f, isF := v.(float64); isF {
						s += fmt.Sprintf("|%.6g", f)
					} else {
						s += fmt.Sprintf("|%v", v)
					}
				}
				out = append(out, s)
			}
			if err := rows.Close(); err != nil {
				t.Fatalf("DOP %d close: %v", dop, err)
			}
			sort.Strings(out)
			return out
		}
		serial, par := render(1), render(4)
		if len(serial) != len(par) {
			t.Fatalf("row counts differ: %d vs %d", len(serial), len(par))
		}
		for i := range serial {
			if serial[i] != par[i] {
				t.Errorf("row %d differs:\n  serial  %s\n  parallel %s", i, serial[i], par[i])
			}
		}
		if len(serial) == 0 {
			t.Error("plan returned no rows")
		}
	})
}

// TestPlanCacheReusedAcrossQueryRuns checks that re-running a query
// hits the plan cache rather than re-optimizing.
func TestPlanCacheReusedAcrossQueryRuns(t *testing.T) {
	rig(t, 0.01, func(p *sim.Proc, eng *engine.Engine, db *DB) {
		pl := db.Planner
		hits0, misses0 := pl.Hits, pl.Misses
		for i := 0; i < 3; i++ {
			ctx := eng.NewCtx(p)
			if err := QueryByID(1).Run(ctx, db); err != nil {
				t.Fatal(err)
			}
		}
		if pl.Misses-misses0 != 1 {
			t.Errorf("misses = %d, want 1 (first run only)", pl.Misses-misses0)
		}
		if pl.Hits-hits0 != 2 {
			t.Errorf("hits = %d, want 2 (two re-runs)", pl.Hits-hits0)
		}
	})
}

func TestQueryDeterminism(t *testing.T) {
	// Same seed, same data: Q3 must produce identical row counts across
	// two executions.
	rig(t, 0.01, func(p *sim.Proc, eng *engine.Engine, db *DB) {
		c1 := eng.NewCtx(p)
		if err := QueryByID(3).Run(c1, db); err != nil {
			t.Fatal(err)
		}
		c2 := eng.NewCtx(p)
		if err := QueryByID(3).Run(c2, db); err != nil {
			t.Fatal(err)
		}
		if c1.RowsOut != c2.RowsOut {
			t.Errorf("Q3 row counts differ: %d vs %d", c1.RowsOut, c2.RowsOut)
		}
		if c1.RowsOut == 0 {
			t.Error("Q3 returned no rows; predicates likely select nothing")
		}
	})
}
