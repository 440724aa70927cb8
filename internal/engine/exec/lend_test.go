package exec

import (
	"fmt"
	"runtime"
	"runtime/debug"
	"slices"
	"sort"
	"strings"
	"sync"
	"testing"
	"time"

	"remotedb/internal/engine/row"
	"remotedb/internal/sim"
)

// poisoned is the sentinel poison writes over a row it lent.
type poisoned struct{}

// poison wraps an input and, on each Next and on Close, overwrites every
// slot of the row it returned last with the sentinel. An operator that
// keeps a lent row without copying it then holds sentinels, not values.
type poison struct {
	Op
	last row.Tuple
}

func (p *poison) spoil() {
	for i := range p.last {
		p.last[i] = poisoned{}
	}
	p.last = nil
}

func (p *poison) Next(c *Ctx) (row.Tuple, bool, error) {
	p.spoil()
	t, ok, err := p.Op.Next(c)
	p.last = t
	return t, ok, err
}

func (p *poison) Close(c *Ctx) error {
	p.spoil()
	return p.Op.Close(c)
}

// TestKeepersCopyLentRows runs every operator that keeps or passes on
// its input's rows twice: once over plain inputs with a grant nothing
// spills under, and once over inputs that poison each row once it is no
// longer lent, under the case's grant. Both runs must give the same
// rows, and no sentinel may surface.
func TestKeepersCopyLentRows(t *testing.T) {
	withRig(t, func(p *sim.Proc, r *rigT) {
		orders, items := loadJoinTables(t, p, r, 600)
		idx, err := r.c.CreateIndex(p, "ix_item_order", "lineitem", "orderkey")
		if err != nil {
			t.Fatal(err)
		}
		ranges, err := PartitionRanges(p, items, nil, nil, 4)
		if err != nil || len(ranges) < 2 {
			t.Fatalf("%d ranges, %v", len(ranges), err)
		}
		type wrap func(Op) Op
		ordersScan := func(w wrap) Op { return w(&TableScan{Table: orders}) }
		itemsScan := func(w wrap) Op { return w(&TableScan{Table: items}) }
		itemParts := func(w wrap) []Op {
			parts := make([]Op, len(ranges))
			for i, rg := range ranges {
				parts[i] = w(&TableScan{Table: items, From: rg[0], To: rg[1]})
			}
			return parts
		}
		join := func(w wrap, remote bool) Op {
			return &HashJoin{Build: ordersScan(w), Probe: itemsScan(w),
				BuildCols: []string{"orderkey"}, ProbeCols: []string{"orderkey"}, RemoteProbe: remote}
		}
		aggs := []Agg{{Fn: AggSum, Col: "price", As: "s"}, {Fn: AggMax, Col: "linenum", As: "m"}}
		cases := []struct {
			name  string
			grant int64
			spill bool // the run must go through TempDB
			op    func(w wrap) Op
		}{
			{"hash join", 1 << 30, false, func(w wrap) Op { return join(w, false) }},
			{"grace hash join", 4 << 10, true, func(w wrap) Op { return join(w, false) }},
			{"remote hash join", 4 << 10, true, func(w wrap) Op { return join(w, true) }},
			{"sort", 1 << 30, false, func(w wrap) Op { return &Sort{In: itemsScan(w), Specs: []SortSpec{{Col: "price", Desc: true}}} }},
			{"spilled sort", 8 << 10, true, func(w wrap) Op { return &Sort{In: itemsScan(w), Specs: []SortSpec{{Col: "price"}}} }},
			{"top-n heap", 1 << 30, false, func(w wrap) Op { return &TopN{In: itemsScan(w), Specs: []SortSpec{{Col: "price"}}, N: 50} }},
			{"top-n sort", 16 << 10, true, func(w wrap) Op { return &TopN{In: itemsScan(w), Specs: []SortSpec{{Col: "price", Desc: true}}, N: 900} }},
			{"exchange", 1 << 30, false, func(w wrap) Op { return &Exchange{Parts: itemParts(w)} }},
			{"sort over exchange", 1 << 30, false, func(w wrap) Op {
				return &Sort{In: w(&ParallelScan{Table: items, DOP: 4}), Specs: []SortSpec{{Col: "price", Desc: true}}}
			}},
			{"hash agg", 1 << 30, false, func(w wrap) Op { return &HashAgg{In: itemsScan(w), GroupBy: []string{"orderkey"}, Aggs: aggs} }},
			{"parallel agg", 1 << 30, false, func(w wrap) Op { return &ParallelAgg{Parts: itemParts(w), GroupBy: []string{"orderkey"}, Aggs: aggs} }},
			{"index nested-loop join", 1 << 30, false, func(w wrap) Op {
				return &IndexNestedLoopJoin{Outer: ordersScan(w), OuterCols: []string{"orderkey"}, Inner: idx, Fetch: true}
			}},
			{"filter", 1 << 30, false, func(w wrap) Op {
				return &Filter{In: itemsScan(w), Pred: func(t row.Tuple) bool { return t[1].(int64) == 2 }}
			}},
			{"project", 1 << 30, false, func(w wrap) Op { return &Project{In: itemsScan(w), Cols: []string{"price", "orderkey"}} }},
			{"limit", 1 << 30, false, func(w wrap) Op { return &Limit{In: itemsScan(w), N: 100} }},
		}
		run := func(name string, grant int64, spill bool, op Op) []string {
			t.Helper()
			r.ctx.Grant = grant
			before := r.ctx.SpilledRuns + r.ctx.SpilledParts
			rows, err := collect(r.ctx, op)
			if err != nil {
				t.Fatalf("%s: %v", name, err)
			}
			if spilled := r.ctx.SpilledRuns+r.ctx.SpilledParts > before; spilled != spill {
				t.Fatalf("%s: spilled %v, want %v", name, spilled, spill)
			}
			out := make([]string, len(rows))
			for i, tp := range rows {
				out[i] = fmt.Sprint(tp)
				if strings.Contains(out[i], "{}") {
					t.Fatalf("%s: row %d kept a row it was lent: %s", name, i, out[i])
				}
			}
			sort.Strings(out)
			return out
		}
		// The reference run is unpoisoned and in memory, so a spilling
		// path that reuses its own decode buffer is checked too.
		for _, tc := range cases {
			want := run(tc.name, 1<<30, false, tc.op(func(in Op) Op { return in }))
			got := run(tc.name, tc.grant, tc.spill, tc.op(func(in Op) Op { return &poison{Op: in} }))
			if len(want) == 0 || len(got) != len(want) {
				t.Fatalf("%s: %d rows over poisoned inputs, %d over plain ones in memory", tc.name, len(got), len(want))
			}
			for i := range want {
				if got[i] != want[i] {
					t.Fatalf("%s: row %s over poisoned inputs, %s over plain ones in memory", tc.name, got[i], want[i])
				}
			}
		}
	})
}

// TestExchangeRecyclesBatches closes a 4-way parallel scan early under a
// limit, while its producers are parked on full queues, opens it again,
// and then runs a second query on the batches the first two handed
// back. Each must return what a fresh serial plan returns, and no row
// may hold the sentinel poison writes over a loan that ended.
func TestExchangeRecyclesBatches(t *testing.T) {
	withRig(t, func(p *sim.Proc, r *rigT) {
		_, items := loadJoinTables(t, p, r, 3000)
		rows := func(name string, op Op) []string {
			t.Helper()
			got, err := collect(r.ctx, op)
			if err != nil {
				t.Fatalf("%s: %v", name, err)
			}
			out := make([]string, len(got))
			for i, tp := range got {
				if out[i] = fmt.Sprint(tp); strings.Contains(out[i], "{}") {
					t.Fatalf("%s: row %d holds a row whose loan ended: %s", name, i, out[i])
				}
			}
			return out
		}
		same := func(name string, got, want []string) {
			t.Helper()
			if len(want) == 0 || len(got) != len(want) {
				t.Fatalf("%s: %d rows, want %d", name, len(got), len(want))
			}
			for i := range want {
				if got[i] != want[i] {
					t.Fatalf("%s: row %d is %s, want %s", name, i, got[i], want[i])
				}
			}
		}
		first := rows("serial limit", &Limit{In: &TableScan{Table: items}, N: 100})
		limited := &Limit{In: &poison{Op: &ParallelScan{Table: items, DOP: 4}}, N: 100}
		same("parallel limit", rows("parallel limit", limited), first)
		same("parallel limit reopened", rows("parallel limit reopened", limited), first)

		sorted := func(in Op) Op { return &Sort{In: in, Specs: []SortSpec{{Col: "price", Desc: true}}} }
		same("sort over a recycled exchange", rows("sort over a recycled exchange", sorted(&poison{Op: &ParallelScan{Table: items, DOP: 4}})),
			rows("serial sort", sorted(&TableScan{Table: items})))
	})
}

// TestExchangeBatchPoolAcrossKernels runs parallel scans on two kernels
// at once, each in its own goroutine over its own table. The batch pool
// is the one thing they share; the race detector watches it.
func TestExchangeBatchPoolAcrossKernels(t *testing.T) {
	var wg sync.WaitGroup
	for g := 0; g < 2; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			withRig(t, func(p *sim.Proc, r *rigT) {
				items, err := r.c.CreateTable(p, "lineitem", itemsSchema(), "orderkey", "linenum")
				if err != nil {
					t.Error(err)
					return
				}
				tuples := make([]row.Tuple, 3000+1500*g)
				for i := range tuples {
					tuples[i] = row.Tuple{int64(i / 3), int64(i % 3), float64(i)}
				}
				if err := items.BulkLoad(p, tuples); err != nil {
					t.Error(err)
					return
				}
				want, err := collect(r.ctx, &TableScan{Table: items})
				if err != nil {
					t.Error(err)
					return
				}
				for run := 0; run < 4; run++ {
					got, err := collect(r.ctx, &ParallelScan{Table: items, DOP: 4})
					if err != nil || len(got) != len(want) {
						t.Errorf("kernel %d run %d: %d rows, want %d, %v", g, run, len(got), len(want), err)
						return
					}
					for i := range want {
						if fmt.Sprint(got[i]) != fmt.Sprint(want[i]) {
							t.Errorf("kernel %d run %d: row %d is %v, want %v", g, run, i, got[i], want[i])
							return
						}
					}
				}
			})
		}()
	}
	wg.Wait()
}

// TestRejectedRowsAreNotDecoded scans with a predicate that rejects
// every row, serially and at DOP 4: what a row costs in allocations is
// its predicate's decode, however many columns the scan would
// materialise for a row it kept. A row the predicate keeps costs what it
// costs with no predicate, at either DOP: the decode keeps the boxes the
// predicate made, and a parallel scan binds the predicate once for all
// its workers. At DOP 4 a row a worker rejects never crosses the
// exchange, so the consumer pays PerXchg once per kept row, not per
// scanned row.
func TestRejectedRowsAreNotDecoded(t *testing.T) {
	withRig(t, func(p *sim.Proc, r *rigT) {
		_, items := loadJoinTables(t, p, r, 600)
		const rows = 1800
		price := func(keep bool) []ScanPred {
			return []ScanPred{{Ords: []int{2}, Fn: func(tp row.Tuple) bool { return (tp[0].(float64) >= 0) == keep }}}
		}
		perRow := func(dop int, cols []string, preds []ScanPred, want int64) float64 {
			return testing.AllocsPerRun(5, func() {
				var op Op = &TableScan{Table: items, Cols: cols, Preds: preds}
				if dop > 1 {
					op = &ParallelScan{Table: items, DOP: dop, Cols: cols, Preds: preds}
				}
				if n, err := Run(r.ctx, op); err != nil || n != want {
					t.Errorf("DOP %d scan with cols %v: %d rows, %v", dop, cols, n, err)
				}
			}) / rows
		}
		for _, dop := range []int{1, 4} {
			one, three := perRow(dop, []string{"linenum"}, price(false), 0), perRow(dop, nil, price(false), 0)
			if three > one+0.01 {
				t.Errorf("DOP %d: a rejected row allocates %.3f times materialising 3 columns, %.3f materialising 1", dop, three, one)
			}
		}
		// A parallel scan binds its predicates once for all its workers.
		for _, dop := range []int{1, 4} {
			kept, plain := perRow(dop, nil, price(true), rows), perRow(dop, nil, nil, rows)
			if kept > plain+0.01 {
				t.Errorf("DOP %d: a kept row allocates %.3f times, %.3f with no predicate", dop, kept, plain)
			}
		}

		// Only PerXchg costs virtual time, and only the consumer charges
		// it; the time a run with no CPU costs at all takes is subtracted.
		firstLine := []ScanPred{{Ords: []int{1}, Fn: func(tp row.Tuple) bool { return tp[0].(int64) == 0 }}}
		defer func(cpu CPUProfile) { r.ctx.CPU = cpu }(r.ctx.CPU)
		elapsed := func(cpu CPUProfile) time.Duration {
			r.ctx.CPU = cpu
			t0 := p.Now()
			if n, err := Run(r.ctx, &ParallelScan{Table: items, DOP: 4, Preds: firstLine}); err != nil || n != rows/3 {
				t.Errorf("DOP 4 scan of first lines: %d rows, %v", n, err)
			}
			return p.Now() - t0
		}
		if got, want := elapsed(CPUProfile{PerXchg: time.Microsecond})-elapsed(CPUProfile{}), rows/3*time.Microsecond; got != want {
			t.Errorf("the consumer of a DOP 4 scan keeping %d of %d rows charged %v of PerXchg, want %v", rows/3, rows, got, want)
		}
	})
}

// TestWarmParallelScanAllocatesNoBatch drains a 4-way parallel scan
// over a warm table again and again: every batch its exchange fills must
// come from the pool the previous scan handed its batches to.
func TestWarmParallelScanAllocatesNoBatch(t *testing.T) {
	if raceEnabled() {
		t.Skip("under the race detector a sync.Pool drops a random share of what it is given")
	}
	withRig(t, func(p *sim.Proc, r *rigT) {
		_, items := loadJoinTables(t, p, r, 3000)
		scan := func() {
			if n, err := Run(r.ctx, &ParallelScan{Table: items, DOP: 4}); err != nil || n != 9000 {
				t.Errorf("parallel scan: %d rows, %v", n, err)
			}
		}
		// One P and no collection: a pool's batch left in another P's
		// private slot, or dropped by a collection, would be made again.
		defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
		defer debug.SetGCPercent(debug.SetGCPercent(-1))
		scan() // warms the table and the pool
		newBatch, made := xchgBatches.New, 0
		xchgBatches.New = func() any { made++; return newBatch() }
		defer func() { xchgBatches.New = newBatch }()
		allocs := testing.AllocsPerRun(3, scan)
		if made > 0 {
			t.Errorf("4 warm parallel scans allocated %d batches (%.0f allocations a scan)", made, allocs)
		}
		b := xchgBatches.Get().(*xchgBatch)
		defer xchgBatches.Put(b)
		if cap(b.rows) == 0 || slices.ContainsFunc(b.rows[:cap(b.rows)], func(t row.Tuple) bool { return t != nil }) ||
			slices.ContainsFunc(b.vals[:cap(b.vals)], func(v interface{}) bool { return v != nil }) {
			t.Error("a pooled batch keeps rows or values alive")
		}
	})
}

// raceEnabled reports whether the test binary was built with -race.
func raceEnabled() bool {
	if bi, ok := debug.ReadBuildInfo(); ok {
		for _, s := range bi.Settings {
			if s.Key == "-race" {
				return s.Value == "true"
			}
		}
	}
	return false
}
