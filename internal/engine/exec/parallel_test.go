package exec

import (
	"fmt"
	"sort"
	"testing"
	"time"

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

// TestPartitionRangesBelowNarrowRoot partitions a height-3 table whose
// root has two children: the split must come from the level below, so
// DOP 4 gets four ranges, not the root's two.
func TestPartitionRangesBelowNarrowRoot(t *testing.T) {
	withRig(t, func(p *sim.Proc, r *rigT) {
		_, items := loadJoinTables(t, p, r, 20000)
		tree := items.Clustered
		h, err := tree.Pool().Get(p, tree.Root())
		if err != nil {
			t.Fatal(err)
		}
		children := h.Page().NumSlots() - 1
		h.Release()
		if tree.Height() != 3 || children != 2 {
			t.Fatalf("lineitem has height %d and %d root children, want 3 and 2", tree.Height(), children)
		}
		ranges, err := PartitionRanges(p, items, nil, nil, 4)
		if err != nil || len(ranges) != 4 {
			t.Fatalf("DOP 4 got %d ranges, %v", len(ranges), err)
		}
		for i, rg := range ranges {
			n, err := Run(r.ctx, &TableScan{Table: items, From: rg[0], To: rg[1]})
			if err != nil || n < 60000/8 || n > 60000/2 {
				t.Errorf("range %d holds %d of 60000 rows, %v", i, n, err)
			}
		}
	})
}

// TestParallelScanMorsels checks that a parallel scan dealing many
// morsels to its workers returns exactly the rows of a serial scan, in
// PK order: over the whole table and a sub-range, with and without a
// predicate, on a tree too small to split, and under a limit that closes
// it before its last row, twice.
func TestParallelScanMorsels(t *testing.T) {
	withRig(t, func(p *sim.Proc, r *rigT) {
		_, items := loadJoinTables(t, p, r, 10000)
		small, err := r.c.CreateTable(p, "small", ordersSchema(), "orderkey")
		if err != nil {
			t.Fatal(err)
		}
		if err := small.BulkLoad(p, []row.Tuple{{int64(1), int64(2), 3.0}, {int64(2), int64(3), 4.0}}); err != nil {
			t.Fatal(err)
		}
		odd := []ScanPred{{Ords: []int{2}, Fn: func(tp row.Tuple) bool { return int64(tp[0].(float64))%3 == 1 }}}
		from, to := row.EncodeKey(nil, int64(1234), int64(1)), row.EncodeKey(nil, int64(8765))
		for _, tc := range []struct {
			name     string
			tbl      *catalog.Table
			from, to []byte
			preds    []ScanPred
			limit    int64
			morsels  int // at least
		}{
			{"whole table", items, nil, nil, nil, 0, 30000 / 512},
			// Half the 512-row morsels of the range's 3 × 7 531 rows.
			{"sub-range", items, from, to, nil, 0, 3 * 7531 / 1024},
			{"predicate", items, nil, nil, odd, 0, 30000 / 512},
			{"sub-range and predicate", items, from, to, odd, 0, 2},
			{"limit", items, nil, nil, nil, 777, 30000 / 512},
			{"small tree", small, nil, nil, odd, 0, 0},
		} {
			serial := func() Op { return &TableScan{Table: tc.tbl, From: tc.from, To: tc.to, Preds: tc.preds} }
			par := &ParallelScan{Table: tc.tbl, From: tc.from, To: tc.to, DOP: 4, Preds: tc.preds}
			var scan, wantOp Op = par, serial()
			if tc.limit > 0 {
				scan, wantOp = &Limit{In: par, N: tc.limit}, &Limit{In: serial(), N: tc.limit}
			}
			want, err := collect(r.ctx, wantOp)
			if err != nil || len(want) == 0 {
				t.Fatalf("%s: serial scan gave %d rows, %v", tc.name, len(want), err)
			}
			for run := 0; run < 2; run++ {
				got, err := collect(r.ctx, scan)
				if err != nil || len(got) != len(want) {
					t.Fatalf("%s, run %d: %d rows, serial %d, %v", tc.name, run, len(got), len(want), err)
				}
				for i := range want {
					if fmt.Sprint(got[i]) != fmt.Sprint(want[i]) {
						t.Fatalf("%s, run %d: row %d is %v, serial %v", tc.name, run, i, got[i], want[i])
					}
				}
				x, isX := par.inner.(*Exchange)
				if tc.morsels == 0 && isX || tc.morsels > 0 && (!isX || len(x.Parts) < tc.morsels || x.Workers != 4) {
					t.Fatalf("%s: inner operator %T, want an exchange of at least %d morsels on 4 workers", tc.name, par.inner, tc.morsels)
				}
			}
		}
	})
}

// TestParallelScanOverlapsWorkers scans 60 000 resident rows serially
// and at DOP 4. The parallel scan's workers must occupy cores at the
// same time, and it must take at most 0.6 of the serial scan's virtual
// time: its producers' per-row CPU overlaps, leaving the consumer's
// merge toll as the serial part.
func TestParallelScanOverlapsWorkers(t *testing.T) {
	withRig(t, func(p *sim.Proc, r *rigT) {
		_, items := loadJoinTables(t, p, r, 20000)
		if _, err := Run(r.ctx, &TableScan{Table: items}); err != nil { // warm the pool
			t.Fatal(err)
		}
		elapsed := func(op Op) (time.Duration, float64) {
			t0, busy0 := p.Now(), r.ctx.Server.CPUBusyNanos()
			if n, err := Run(r.ctx, op); err != nil || n != 60000 {
				t.Fatalf("%T: %d rows, %v", op, n, err)
			}
			d := p.Now() - t0
			return d, float64(r.ctx.Server.CPUBusyNanos()-busy0) / float64(d)
		}
		serial, serialCores := elapsed(&TableScan{Table: items})
		defer func() { r.ctx.DOP = 0 }()
		r.ctx.DOP = 4
		par, parCores := elapsed(&ParallelScan{Table: items})
		t.Logf("serial %v on %.2f cores, DOP 4 %v on %.2f cores", serial, serialCores, par, parCores)
		if par > serial*6/10 {
			t.Errorf("a DOP 4 scan took %v, more than 0.6 of the serial scan's %v", par, serial)
		}
		if parCores < 1.5 {
			t.Errorf("a DOP 4 scan kept %.2f cores busy on average, want at least 1.5", parCores)
		}
	})
}
