package exec

import (
	"fmt"
	"sort"
	"testing"
	"time"

	"remotedb/internal/cluster"
	"remotedb/internal/engine/buffer"
	"remotedb/internal/engine/catalog"
	"remotedb/internal/engine/row"
	"remotedb/internal/engine/tempdb"
	"remotedb/internal/hw/disk"
	"remotedb/internal/sim"
	"remotedb/internal/vfs"
)

// rig builds a catalog + ctx on a null device (no I/O time) with a large
// grant by default.
type rigT struct {
	c   *catalog.Catalog
	ctx *Ctx
}

func withRig(t *testing.T, fn func(p *sim.Proc, r *rigT)) {
	t.Helper()
	k := newKernel(t, 1)
	cfg := cluster.DefaultConfig()
	cfg.MemoryBytes = 1 << 30
	s := cluster.NewServer(k, "db", cfg)
	k.Go("t", func(p *sim.Proc) {
		data := vfs.NewDeviceFile("data", disk.NullDevice{DeviceName: "null"})
		bcfg := buffer.DefaultConfig(8192)
		bcfg.WriterPeriod = 0
		bcfg.PageAccessCPU = 0
		bp, err := buffer.New(p, s, data, bcfg)
		if err != nil {
			t.Error(err)
			return
		}
		ctx := &Ctx{
			P:      p,
			Server: s,
			Temp:   tempdb.New(vfs.NewMemFile("tempdb")),
			Grant:  1 << 30,
			CPU:    DefaultCPUProfile(),
		}
		fn(p, &rigT{c: catalog.New(bp), ctx: ctx})
	})
	k.Run(10 * time.Minute)
}

func ordersSchema() *row.Schema {
	return row.NewSchema(
		row.Column{Name: "orderkey", Type: row.Int64},
		row.Column{Name: "custkey", Type: row.Int64},
		row.Column{Name: "total", Type: row.Float64},
	)
}

func itemsSchema() *row.Schema {
	return row.NewSchema(
		row.Column{Name: "orderkey", Type: row.Int64},
		row.Column{Name: "linenum", Type: row.Int64},
		row.Column{Name: "price", Type: row.Float64},
	)
}

// loadJoinTables creates orders (n rows) and lineitem (3 per order).
func loadJoinTables(t *testing.T, p *sim.Proc, r *rigT, n int) (*catalog.Table, *catalog.Table) {
	t.Helper()
	orders, err := r.c.CreateTable(p, "orders", ordersSchema(), "orderkey")
	if err != nil {
		t.Fatal(err)
	}
	items, err := r.c.CreateTable(p, "lineitem", itemsSchema(), "orderkey", "linenum")
	if err != nil {
		t.Fatal(err)
	}
	var orows, irows []row.Tuple
	for i := 0; i < n; i++ {
		orows = append(orows, row.Tuple{int64(i), int64(i % 100), float64(i)})
		for l := 0; l < 3; l++ {
			irows = append(irows, row.Tuple{int64(i), int64(l), float64(i*10 + l)})
		}
	}
	if err := orders.BulkLoad(p, orows); err != nil {
		t.Fatal(err)
	}
	if err := items.BulkLoad(p, irows); err != nil {
		t.Fatal(err)
	}
	return orders, items
}

func TestTableScanAndFilter(t *testing.T) {
	withRig(t, func(p *sim.Proc, r *rigT) {
		orders, _ := loadJoinTables(t, p, r, 100)
		scan := &TableScan{Table: orders}
		n, err := Run(r.ctx, scan)
		if err != nil || n != 100 {
			t.Errorf("scan n=%d err=%v", n, err)
		}
		f := &Filter{In: &TableScan{Table: orders}, Pred: func(tp row.Tuple) bool {
			return tp[1].(int64) == 7
		}}
		rows, err := collect(r.ctx, f)
		if err != nil || len(rows) != 1 {
			t.Errorf("filter rows=%d err=%v", len(rows), err)
		}
	})
}

// TestScanPredicates checks a scan that evaluates predicates itself
// against a Filter over a plain scan: same rows, same virtual time (every
// scanned row costs PerRow, kept or not). A predicate may declare its
// columns in any order, and twice.
func TestScanPredicates(t *testing.T) {
	withRig(t, func(p *sim.Proc, r *rigT) {
		_, items := loadJoinTables(t, p, r, 300)
		run := func(op Op) ([]row.Tuple, time.Duration) {
			t.Helper()
			t0 := p.Now()
			rows, err := collect(r.ctx, op)
			if err != nil {
				t.Fatal(err)
			}
			return rows, p.Now() - t0
		}
		preds := []ScanPred{
			{Ords: []int{2, 0}, Fn: func(tp row.Tuple) bool { return tp[0].(float64) > 1000 && tp[1].(int64)%2 == 0 }},
			{Ords: []int{1, 1}, Fn: func(tp row.Tuple) bool { return tp[0] == tp[1] && tp[0].(int64) != 1 }},
		}
		got, inScan := run(&TableScan{Table: items, Cols: []string{"linenum", "price"}, Preds: preds})
		want, filtered := run(&Project{Cols: []string{"linenum", "price"}, In: &Filter{In: &TableScan{Table: items}, Pred: func(tp row.Tuple) bool {
			return tp[2].(float64) > 1000 && tp[0].(int64)%2 == 0 && tp[1].(int64) != 1
		}}})
		if len(got) == 0 || fmt.Sprint(got) != fmt.Sprint(want) {
			t.Errorf("scan predicates kept %d rows, a filter %d", len(got), len(want))
		}
		if inScan == 0 || inScan != filtered {
			t.Errorf("scan predicates took %v of virtual time, a filter %v", inScan, filtered)
		}
		bad := &TableScan{Table: items, Preds: []ScanPred{{Ords: []int{3}, Fn: func(row.Tuple) bool { return true }}}}
		if _, err := Run(r.ctx, bad); err == nil {
			t.Error("a predicate on a column the table lacks opened")
		}
	})
}

func TestScanBounds(t *testing.T) {
	withRig(t, func(p *sim.Proc, r *rigT) {
		orders, _ := loadJoinTables(t, p, r, 100)
		scan := &TableScan{
			Table: orders,
			From:  row.EncodeKey(nil, int64(10)),
			To:    row.EncodeKey(nil, int64(20)),
		}
		rows, err := collect(r.ctx, scan)
		if err != nil || len(rows) != 10 {
			t.Errorf("bounded scan rows=%d err=%v", len(rows), err)
		}
	})
}

func TestProjectAndLimit(t *testing.T) {
	withRig(t, func(p *sim.Proc, r *rigT) {
		orders, _ := loadJoinTables(t, p, r, 50)
		op := &Limit{
			In: &Project{In: &TableScan{Table: orders}, Cols: []string{"total", "orderkey"}},
			N:  5,
		}
		rows, err := collect(r.ctx, op)
		if err != nil || len(rows) != 5 {
			t.Errorf("rows=%d err=%v", len(rows), err)
			return
		}
		if len(rows[0]) != 2 {
			t.Errorf("projected arity = %d", len(rows[0]))
		}
		if _, ok := rows[0][0].(float64); !ok {
			t.Errorf("column order wrong: %T", rows[0][0])
		}
	})
}

func TestHashJoinInMemory(t *testing.T) {
	withRig(t, func(p *sim.Proc, r *rigT) {
		orders, items := loadJoinTables(t, p, r, 200)
		j := &HashJoin{
			Build:     &TableScan{Table: orders},
			Probe:     &TableScan{Table: items},
			BuildCols: []string{"orderkey"},
			ProbeCols: []string{"orderkey"},
		}
		n, err := Run(r.ctx, j)
		if err != nil || n != 600 {
			t.Errorf("join n=%d err=%v", n, err)
		}
		if j.Spilled() {
			t.Error("join should not spill with a large grant")
		}
	})
}

func TestHashJoinGraceSpill(t *testing.T) {
	withRig(t, func(p *sim.Proc, r *rigT) {
		orders, items := loadJoinTables(t, p, r, 500)
		r.ctx.Grant = 4 << 10 // tiny grant forces the grace path
		j := &HashJoin{
			Build:     &TableScan{Table: orders},
			Probe:     &TableScan{Table: items},
			BuildCols: []string{"orderkey"},
			ProbeCols: []string{"orderkey"},
		}
		n, err := Run(r.ctx, j)
		if err != nil || n != 1500 {
			t.Errorf("grace join n=%d err=%v", n, err)
		}
		if !j.Spilled() {
			t.Error("join should have spilled")
		}
		if r.ctx.Temp.BytesSpilled == 0 {
			t.Error("no bytes reached TempDB")
		}
	})
}

func TestHashJoinResultParity(t *testing.T) {
	// The spilled and in-memory paths must produce the same multiset.
	withRig(t, func(p *sim.Proc, r *rigT) {
		orders, items := loadJoinTables(t, p, r, 300)
		run := func(grant int64) []string {
			r.ctx.Grant = grant
			j := &HashJoin{
				Build:     &TableScan{Table: orders},
				Probe:     &TableScan{Table: items},
				BuildCols: []string{"orderkey"},
				ProbeCols: []string{"orderkey"},
			}
			rows, err := collect(r.ctx, j)
			if err != nil {
				t.Fatal(err)
			}
			keys := make([]string, len(rows))
			for i, tp := range rows {
				keys[i] = string(row.EncodeKey(nil, tp[0], tp[3], tp[4]))
			}
			sort.Strings(keys)
			return keys
		}
		mem := run(1 << 30)
		spill := run(2 << 10)
		if len(mem) != len(spill) {
			t.Fatalf("parity: %d vs %d rows", len(mem), len(spill))
		}
		for i := range mem {
			if mem[i] != spill[i] {
				t.Fatalf("parity mismatch at %d", i)
			}
		}
	})
}

func TestIndexNestedLoopJoin(t *testing.T) {
	withRig(t, func(p *sim.Proc, r *rigT) {
		orders, _ := loadJoinTables(t, p, r, 200)
		_ = orders
		idx, err := r.c.CreateIndex(p, "ix_item_order", "lineitem", "orderkey")
		if err != nil {
			t.Fatal(err)
		}
		j := &IndexNestedLoopJoin{
			Outer:     &TableScan{Table: orders, From: row.EncodeKey(nil, int64(0)), To: row.EncodeKey(nil, int64(10))},
			OuterCols: []string{"orderkey"},
			Inner:     idx,
		}
		n, err := Run(r.ctx, j)
		if err != nil || n != 30 {
			t.Errorf("inlj n=%d err=%v", n, err)
		}
	})
}

func TestSortInMemoryAndSpilled(t *testing.T) {
	withRig(t, func(p *sim.Proc, r *rigT) {
		orders, _ := loadJoinTables(t, p, r, 500)
		check := func(grant int64, wantSpill bool) {
			r.ctx.Grant = grant
			s := &Sort{In: &TableScan{Table: orders}, Specs: []SortSpec{{Col: "total", Desc: true}}}
			rows, err := collect(r.ctx, s)
			if err != nil {
				t.Fatal(err)
			}
			if len(rows) != 500 {
				t.Fatalf("sorted %d rows", len(rows))
			}
			for i := 1; i < len(rows); i++ {
				if rows[i-1][2].(float64) < rows[i][2].(float64) {
					t.Fatalf("not descending at %d", i)
				}
			}
			if s.Spilled() != wantSpill {
				t.Fatalf("spilled = %v, want %v (grant %d)", s.Spilled(), wantSpill, grant)
			}
		}
		check(1<<30, false)
		check(8<<10, true)
	})
}

func TestSortStableAcrossSpill(t *testing.T) {
	withRig(t, func(p *sim.Proc, r *rigT) {
		orders, _ := loadJoinTables(t, p, r, 400)
		get := func(grant int64) []int64 {
			r.ctx.Grant = grant
			s := &Sort{In: &TableScan{Table: orders}, Specs: []SortSpec{{Col: "custkey"}, {Col: "orderkey"}}}
			rows, err := collect(r.ctx, s)
			if err != nil {
				t.Fatal(err)
			}
			out := make([]int64, len(rows))
			for i, tp := range rows {
				out[i] = tp[0].(int64)
			}
			return out
		}
		mem := get(1 << 30)
		spill := get(4 << 10)
		for i := range mem {
			if mem[i] != spill[i] {
				t.Fatalf("order differs at %d: %d vs %d", i, mem[i], spill[i])
			}
		}
	})
}

func TestTopNHeapAndSpillPaths(t *testing.T) {
	withRig(t, func(p *sim.Proc, r *rigT) {
		orders, _ := loadJoinTables(t, p, r, 1000)
		// Heap path: small N.
		top := &TopN{In: &TableScan{Table: orders}, Specs: []SortSpec{{Col: "total", Desc: true}}, N: 10}
		rows, err := collect(r.ctx, top)
		if err != nil || len(rows) != 10 {
			t.Fatalf("topn rows=%d err=%v", len(rows), err)
		}
		if rows[0][2].(float64) != 999 {
			t.Errorf("top row = %v", rows[0])
		}
		// Degraded path: N too big for the grant -> external sort.
		r.ctx.Grant = 16 << 10
		top2 := &TopN{In: &TableScan{Table: orders}, Specs: []SortSpec{{Col: "total"}}, N: 900}
		rows2, err := collect(r.ctx, top2)
		if err != nil || len(rows2) != 900 {
			t.Fatalf("big topn rows=%d err=%v", len(rows2), err)
		}
		if rows2[0][2].(float64) != 0 {
			t.Errorf("ascending top row = %v", rows2[0])
		}
		if r.ctx.SpilledRuns == 0 {
			t.Error("big topn should have spilled sort runs")
		}
	})
}

func TestHashAgg(t *testing.T) {
	withRig(t, func(p *sim.Proc, r *rigT) {
		orders, _ := loadJoinTables(t, p, r, 1000)
		agg := &HashAgg{
			In:      &TableScan{Table: orders},
			GroupBy: []string{"custkey"},
			Aggs: []Agg{
				{Fn: AggCount, As: "cnt"},
				{Fn: AggSum, Col: "total", As: "sum_total"},
				{Fn: AggMin, Col: "total", As: "min_total"},
				{Fn: AggMax, Col: "total", As: "max_total"},
				{Fn: AggAvg, Col: "total", As: "avg_total"},
			},
		}
		rows, err := collect(r.ctx, agg)
		if err != nil {
			t.Fatal(err)
		}
		if len(rows) != 100 {
			t.Fatalf("groups = %d", len(rows))
		}
		// custkey 0: orders 0,100,...,900 -> count 10, min 0, max 900.
		for _, tp := range rows {
			if tp[0].(int64) == 0 {
				if tp[1].(int64) != 10 || tp[3].(float64) != 0 || tp[4].(float64) != 900 {
					t.Errorf("group 0 aggregates wrong: %v", tp)
				}
				if tp[5].(float64) != 450 {
					t.Errorf("avg = %v", tp[5])
				}
			}
		}
	})
}

func TestAggregateSchemaNames(t *testing.T) {
	withRig(t, func(p *sim.Proc, r *rigT) {
		orders, _ := loadJoinTables(t, p, r, 10)
		agg := &HashAgg{
			In:      &TableScan{Table: orders},
			GroupBy: []string{"custkey"},
			Aggs:    []Agg{{Fn: AggSum, Col: "total", As: "s"}},
		}
		s := agg.Schema()
		if s.Ordinal("custkey") != 0 || s.Ordinal("s") != 1 {
			t.Errorf("schema = %v", s.Columns)
		}
	})
}

func TestCPUChargedToServer(t *testing.T) {
	k := newKernel(t, 1)
	cfg := cluster.DefaultConfig()
	cfg.MemoryBytes = 1 << 30
	s := cluster.NewServer(k, "db", cfg)
	var elapsed time.Duration
	k.Go("t", func(p *sim.Proc) {
		data := vfs.NewDeviceFile("data", disk.NullDevice{DeviceName: "null"})
		bcfg := buffer.DefaultConfig(4096)
		bcfg.WriterPeriod = 0
		bcfg.PageAccessCPU = 0
		bp, _ := buffer.New(p, s, data, bcfg)
		cat := catalog.New(bp)
		tbl, _ := cat.CreateTable(p, "t", ordersSchema(), "orderkey")
		var rows []row.Tuple
		for i := 0; i < 10000; i++ {
			rows = append(rows, row.Tuple{int64(i), int64(i), float64(i)})
		}
		tbl.BulkLoad(p, rows)
		ctx := &Ctx{P: p, Server: s, Temp: tempdb.New(vfs.NewMemFile("td")), Grant: 1 << 30, CPU: DefaultCPUProfile()}
		start := p.Now()
		Run(ctx, &TableScan{Table: tbl})
		elapsed = p.Now() - start
	})
	k.Run(10 * time.Minute)
	// 10000 rows at 50ns each = 0.5ms of CPU minimum.
	if elapsed < 500*time.Microsecond {
		t.Fatalf("scan charged only %v of virtual time", elapsed)
	}
}

// TestColumnLists: a leaf given a column list produces exactly those
// columns, and a join given an output list emits exactly those under the
// names it is told — the same values the full-width operators return.
func TestColumnLists(t *testing.T) {
	withRig(t, func(p *sim.Proc, r *rigT) {
		orders, items := loadJoinTables(t, p, r, 50)
		idx, err := r.c.CreateIndex(p, "ix_item_order", "lineitem", "orderkey")
		if err != nil {
			t.Fatal(err)
		}
		// same checks that narrow's column k is the full-width operator's
		// column pick[k], row for row.
		same := func(name string, narrow, full Op, pick []int) {
			t.Helper()
			got, err := collect(r.ctx, narrow)
			if err != nil {
				t.Fatalf("%s: %v", name, err)
			}
			want, err := collect(r.ctx, full)
			if err != nil || len(got) != len(want) || len(got) == 0 {
				t.Fatalf("%s: %d rows, full width %d, %v", name, len(got), len(want), err)
			}
			for i := range got {
				if len(got[i]) != len(pick) {
					t.Fatalf("%s: row of %d columns, want %d", name, len(got[i]), len(pick))
				}
				for k, o := range pick {
					if got[i][k] != want[i][o] {
						t.Fatalf("%s row %d col %d = %v, want %v", name, i, k, got[i][k], want[i][o])
					}
				}
			}
		}
		cols := []string{"orderkey", "price"}
		same("table scan", &TableScan{Table: items, Cols: cols}, &TableScan{Table: items}, []int{0, 2})
		same("parallel scan", &ParallelScan{Table: items, DOP: 4, Cols: cols}, &ParallelScan{Table: items, DOP: 4}, []int{0, 2})
		inlj := func(inner []string) Op {
			return &IndexNestedLoopJoin{Outer: &Project{In: &TableScan{Table: orders}, Cols: []string{"orderkey"}}, OuterCols: []string{"orderkey"}, Inner: idx, Fetch: true, InnerCols: inner}
		}
		same("index nested-loop join", inlj([]string{"price"}), inlj(nil), []int{0, 3})
		join := func(out []JoinCol) *HashJoin {
			return &HashJoin{Build: &TableScan{Table: orders}, Probe: &TableScan{Table: items},
				BuildCols: []string{"orderkey"}, ProbeCols: []string{"orderkey"}, Out: out}
		}
		narrow := join([]JoinCol{{Col: "total", As: "total"}, {Probe: true, Col: "orderkey", As: "orderkey_1"}, {Probe: true, Col: "price", As: "price"}})
		same("hash join", narrow, join(nil), []int{2, 3, 5})
		if got, want := narrow.Schema().Names(), []string{"total", "orderkey_1", "price"}; len(got) != 3 || got[0] != want[0] || got[1] != want[1] || got[2] != want[2] {
			t.Errorf("join output names %v, want %v", got, want)
		}
		if got := join(nil).Schema().Names(); got[3] != "orderkey_1" {
			t.Errorf("full-width join names its probe key %q, want orderkey_1", got[3])
		}
		// A list out of schema order, or naming no column, is refused at Open.
		for _, bad := range [][]string{{"price", "orderkey"}, {"nosuch"}} {
			if _, err := Run(r.ctx, &TableScan{Table: items, Cols: bad}); err == nil {
				t.Errorf("scan of columns %v opened", bad)
			}
		}
	})
}
