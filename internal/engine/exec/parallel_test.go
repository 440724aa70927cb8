package exec

import (
	"fmt"
	"sort"
	"testing"

	"remotedb/internal/engine/catalog"
	"remotedb/internal/engine/row"
	"remotedb/internal/sim"
)

func TestPartitionRangesCoverKeySpace(t *testing.T) {
	withRig(t, func(p *sim.Proc, r *rigT) {
		orders, _ := loadJoinTables(t, p, r, 2000)
		ranges, err := PartitionRanges(p, orders, nil, nil, 4)
		if err != nil {
			t.Fatal(err)
		}
		if len(ranges) < 2 {
			t.Fatalf("expected multiple ranges, got %d", len(ranges))
		}
		// Consecutive, first open below, last open above.
		if ranges[0][0] != nil || ranges[len(ranges)-1][1] != nil {
			t.Errorf("outer bounds not open: %v", ranges)
		}
		total := int64(0)
		for i, rg := range ranges {
			if i > 0 && string(ranges[i-1][1]) != string(rg[0]) {
				t.Errorf("range %d not adjacent to predecessor", i)
			}
			n, err := Run(r.ctx, &TableScan{Table: orders, From: rg[0], To: rg[1]})
			if err != nil {
				t.Fatal(err)
			}
			if n == 0 {
				t.Errorf("range %d is empty", i)
			}
			total += n
		}
		if total != 2000 {
			t.Errorf("ranges cover %d rows, want 2000", total)
		}
	})
}

func TestParallelScanMatchesSerial(t *testing.T) {
	withRig(t, func(p *sim.Proc, r *rigT) {
		orders, _ := loadJoinTables(t, p, r, 2000)
		serial, err := collect(r.ctx, &TableScan{Table: orders})
		if err != nil {
			t.Fatal(err)
		}
		par, err := collect(r.ctx, &ParallelScan{Table: orders, DOP: 4})
		if err != nil {
			t.Fatal(err)
		}
		if len(par) != len(serial) {
			t.Fatalf("parallel rows=%d serial=%d", len(par), len(serial))
		}
		for i := range serial {
			if fmt.Sprint(par[i]) != fmt.Sprint(serial[i]) {
				t.Fatalf("row %d differs: %v vs %v (PK order not preserved?)", i, par[i], serial[i])
			}
		}
	})
}

func TestParallelScanBounds(t *testing.T) {
	withRig(t, func(p *sim.Proc, r *rigT) {
		orders, _ := loadJoinTables(t, p, r, 2000)
		from := row.EncodeKey(nil, int64(100))
		to := row.EncodeKey(nil, int64(1500))
		n, err := Run(r.ctx, &ParallelScan{Table: orders, From: from, To: to, DOP: 4})
		if err != nil || n != 1400 {
			t.Errorf("bounded parallel scan n=%d err=%v, want 1400", n, err)
		}
	})
}

func TestExchangeEarlyCloseUnderLimit(t *testing.T) {
	withRig(t, func(p *sim.Proc, r *rigT) {
		orders, _ := loadJoinTables(t, p, r, 2000)
		// A tiny limit abandons the exchange with producers still parked
		// on full queues; Close must wake and drain them.
		op := &Limit{In: &ParallelScan{Table: orders, DOP: 4}, N: 5}
		n, err := Run(r.ctx, op)
		if err != nil || n != 5 {
			t.Errorf("limit over exchange n=%d err=%v", n, err)
		}
	})
}

func TestParallelAggMatchesSerial(t *testing.T) {
	withRig(t, func(p *sim.Proc, r *rigT) {
		orders, _ := loadJoinTables(t, p, r, 2000)
		groupBy := []string{"custkey"}
		aggs := []Agg{
			{Fn: AggSum, Col: "total", As: "sum_total"},
			{Fn: AggCount, As: "n"},
			{Fn: AggAvg, Col: "total", As: "avg_total"},
			{Fn: AggMin, Col: "total", As: "min_total"},
			{Fn: AggMax, Col: "total", As: "max_total"},
		}
		serial, err := collect(r.ctx, &HashAgg{
			In: &TableScan{Table: orders}, GroupBy: groupBy, Aggs: aggs,
		})
		if err != nil {
			t.Fatal(err)
		}
		ranges, err := PartitionRanges(p, orders, nil, nil, 4)
		if err != nil {
			t.Fatal(err)
		}
		parts := make([]Op, len(ranges))
		for i, rg := range ranges {
			parts[i] = &TableScan{Table: orders, From: rg[0], To: rg[1]}
		}
		par, err := collect(r.ctx, &ParallelAgg{Parts: parts, GroupBy: groupBy, Aggs: aggs})
		if err != nil {
			t.Fatal(err)
		}
		if len(par) != len(serial) {
			t.Fatalf("parallel groups=%d serial=%d", len(par), len(serial))
		}
		// Group emission order may differ (first appearance per partition):
		// compare as sorted multisets.
		key := func(t row.Tuple) string { return fmt.Sprint(t) }
		a, b := make([]string, len(serial)), make([]string, len(par))
		for i := range serial {
			a[i], b[i] = key(serial[i]), key(par[i])
		}
		sort.Strings(a)
		sort.Strings(b)
		for i := range a {
			if a[i] != b[i] {
				t.Fatalf("group %d differs:\n serial: %s\n parallel: %s", i, a[i], b[i])
			}
		}
	})
}

// TestParallelScanPredicates checks a parallel scan that evaluates a
// predicate in its partitions against a Filter over the same scan: the
// same rows, in PK order, over a range that splits at DOP 4 and over a
// tree too small to split, where the scan falls back to one TableScan
// that must evaluate the predicate too.
func TestParallelScanPredicates(t *testing.T) {
	withRig(t, func(p *sim.Proc, r *rigT) {
		orders, _ := loadJoinTables(t, p, r, 2000)
		small, err := r.c.CreateTable(p, "small", ordersSchema(), "orderkey")
		if err != nil {
			t.Fatal(err)
		}
		var rows []row.Tuple
		for i := 0; i < 10; i++ {
			rows = append(rows, row.Tuple{int64(i), int64(i % 4), float64(i)})
		}
		if err := small.BulkLoad(p, rows); err != nil {
			t.Fatal(err)
		}
		keep := func(custkey interface{}) bool { return custkey.(int64)%4 == 3 }
		preds := []ScanPred{{Ords: []int{1}, Fn: func(tp row.Tuple) bool { return keep(tp[0]) }}}
		for _, tc := range []struct {
			name     string
			tbl      *catalog.Table
			from, to []byte
			split    bool
		}{
			{"split range", orders, row.EncodeKey(nil, int64(100)), row.EncodeKey(nil, int64(1500)), true},
			{"small tree", small, nil, nil, false},
		} {
			ranges, err := PartitionRanges(p, tc.tbl, tc.from, tc.to, 4)
			if err != nil || (len(ranges) > 1) != tc.split {
				t.Fatalf("%s: %d ranges at DOP 4, %v", tc.name, len(ranges), err)
			}
			scan := func(preds []ScanPred) *ParallelScan {
				return &ParallelScan{Table: tc.tbl, From: tc.from, To: tc.to, DOP: 4, Preds: preds}
			}
			want, err := collect(r.ctx, &Filter{In: scan(nil), Pred: func(tp row.Tuple) bool { return keep(tp[1]) }})
			if err != nil || len(want) == 0 {
				t.Fatalf("%s: filter kept %d rows, %v", tc.name, len(want), err)
			}
			got, err := collect(r.ctx, scan(preds))
			if err != nil || len(got) != len(want) {
				t.Fatalf("%s: scan predicate kept %d rows, filter %d, %v", tc.name, len(got), len(want), err)
			}
			for i := range want {
				if fmt.Sprint(got[i]) != fmt.Sprint(want[i]) {
					t.Fatalf("%s: row %d is %v, filter's is %v", tc.name, i, got[i], want[i])
				}
			}
		}
	})
}

func TestParallelScanSmallTreeDegradesToSerial(t *testing.T) {
	withRig(t, func(p *sim.Proc, r *rigT) {
		orders, _ := loadJoinTables(t, p, r, 10)
		n, err := Run(r.ctx, &ParallelScan{Table: orders, DOP: 8})
		if err != nil || n != 10 {
			t.Errorf("small-tree parallel scan n=%d err=%v", n, err)
		}
	})
}

func TestOperatorsReopenCleanly(t *testing.T) {
	withRig(t, func(p *sim.Proc, r *rigT) {
		orders, items := loadJoinTables(t, p, r, 200)
		join := &HashJoin{
			Build:     &TableScan{Table: orders},
			Probe:     &TableScan{Table: items},
			BuildCols: []string{"orderkey"},
			ProbeCols: []string{"orderkey"},
		}
		srt := &Sort{In: &TableScan{Table: orders}, Specs: []SortSpec{{Col: "total", Desc: true}}}
		for i := 0; i < 2; i++ {
			n, err := Run(r.ctx, join)
			if err != nil || n != 600 {
				t.Errorf("join run %d: n=%d err=%v", i, n, err)
			}
			n, err = Run(r.ctx, srt)
			if err != nil || n != 200 {
				t.Errorf("sort run %d: n=%d err=%v", i, n, err)
			}
		}
	})
}
