package exec

import (
	"fmt"
	"sort"
	"strings"
	"testing"

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
			{"exchange", 1 << 30, false, func(w wrap) Op { return &Exchange{Parts: itemParts(w), BatchRows: 16} }},
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
