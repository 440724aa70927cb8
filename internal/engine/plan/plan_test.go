package plan

import (
	"fmt"
	"testing"
	"time"

	"remotedb/internal/cluster"
	"remotedb/internal/engine/buffer"
	"remotedb/internal/engine/catalog"
	"remotedb/internal/engine/exec"
	"remotedb/internal/engine/row"
	"remotedb/internal/engine/tempdb"
	"remotedb/internal/hw/disk"
	"remotedb/internal/sim"
	"remotedb/internal/vfs"
)

type rigT struct {
	cat *catalog.Catalog
	ctx *exec.Ctx
	pl  *Planner
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
		ctx := &exec.Ctx{
			P:      p,
			Server: s,
			Temp:   tempdb.New(vfs.NewMemFile("tempdb")),
			Grant:  1 << 30,
			CPU:    exec.DefaultCPUProfile(),
			DOP:    4,
		}
		fn(p, &rigT{cat: catalog.New(bp), ctx: ctx, pl: NewPlanner(nil, 0)})
	})
	k.Run(10 * time.Minute)
}

func loadOrders(t *testing.T, p *sim.Proc, r *rigT, n int) *catalog.Table {
	t.Helper()
	sch := row.NewSchema(
		row.Column{Name: "orderkey", Type: row.Int64},
		row.Column{Name: "custkey", Type: row.Int64},
		row.Column{Name: "total", Type: row.Float64},
	)
	tbl, err := r.cat.CreateTable(p, "orders", sch, "orderkey")
	if err != nil {
		t.Fatal(err)
	}
	var rows []row.Tuple
	for i := 0; i < n; i++ {
		rows = append(rows, row.Tuple{int64(i), int64(i % 100), float64(i)})
	}
	if err := tbl.BulkLoad(p, rows); err != nil {
		t.Fatal(err)
	}
	return tbl
}

func TestSignatureNormalization(t *testing.T) {
	withRig(t, func(p *sim.Proc, r *rigT) {
		orders := loadOrders(t, p, r, 100)
		big := func(tp row.Tuple) bool { return tp[0].(float64) > 50 }
		cust := func(tp row.Tuple) bool { return tp[0].(int64) == 3 }

		a := Scan(orders).Where("big", []string{"total"}, big).Where("cust3", []string{"custkey"}, cust).Select("orderkey")
		b := Scan(orders).Where("cust3", []string{"custkey"}, cust).Where("big", []string{"total"}, big).Select("orderkey")
		sa := Signature(normalize(a.Node()), 4)
		sb := Signature(normalize(b.Node()), 4)
		if sa != sb {
			t.Errorf("filter order changed signature:\n%s\n%s", sa, sb)
		}

		// Range bounds are parameters, not structure.
		c := ScanRange(orders, row.EncodeKey(nil, int64(10)), row.EncodeKey(nil, int64(20))).Where("big", []string{"total"}, big)
		d := ScanRange(orders, row.EncodeKey(nil, int64(40)), row.EncodeKey(nil, int64(90))).Where("big", []string{"total"}, big)
		if Signature(normalize(c.Node()), 4) != Signature(normalize(d.Node()), 4) {
			t.Error("range bounds leaked into signature")
		}

		// A different predicate name is a different plan.
		e := Scan(orders).Where("other", []string{"total"}, big)
		if Signature(normalize(a.Node()), 4) == Signature(normalize(e.Node()), 4) {
			t.Error("predicate names not part of signature")
		}

		// DOP is part of the key.
		if Signature(normalize(a.Node()), 1) == Signature(normalize(a.Node()), 4) {
			t.Error("DOP not part of signature")
		}
	})
}

func TestPlanCacheHitMiss(t *testing.T) {
	withRig(t, func(p *sim.Proc, r *rigT) {
		orders := loadOrders(t, p, r, 100)
		q := func(lo, hi int64) *Builder {
			return ScanRange(orders, row.EncodeKey(nil, lo), row.EncodeKey(nil, hi)).
				GroupBy([]string{"custkey"}, exec.Agg{Fn: exec.AggCount, As: "n"})
		}
		if _, err := r.pl.Run(r.ctx, q(0, 50)); err != nil {
			t.Fatal(err)
		}
		if r.pl.Hits != 0 || r.pl.Misses != 1 {
			t.Fatalf("first run: hits=%d misses=%d", r.pl.Hits, r.pl.Misses)
		}
		// Same shape, different parameters: a hit.
		if _, err := r.pl.Run(r.ctx, q(20, 80)); err != nil {
			t.Fatal(err)
		}
		if r.pl.Hits != 1 || r.pl.Misses != 1 {
			t.Fatalf("second run: hits=%d misses=%d", r.pl.Hits, r.pl.Misses)
		}
		// Different shape: a miss.
		if _, err := r.pl.Run(r.ctx, q(0, 50).Limit(3)); err != nil {
			t.Fatal(err)
		}
		if r.pl.Hits != 1 || r.pl.Misses != 2 {
			t.Fatalf("third run: hits=%d misses=%d", r.pl.Hits, r.pl.Misses)
		}
	})
}

func TestPlanCacheEviction(t *testing.T) {
	withRig(t, func(p *sim.Proc, r *rigT) {
		orders := loadOrders(t, p, r, 100)
		pl := NewPlanner(nil, 2)
		pl.Run(r.ctx, Scan(orders))
		pl.Run(r.ctx, Scan(orders).Limit(1))
		pl.Run(r.ctx, Scan(orders).Limit(2))
		if pl.CacheLen() != 2 {
			t.Errorf("cache len=%d, want 2 (FIFO bound)", pl.CacheLen())
		}
		// Negative maxEntries disables caching entirely.
		off := NewPlanner(nil, -1)
		off.Run(r.ctx, Scan(orders))
		off.Run(r.ctx, Scan(orders))
		if off.Hits != 0 || off.CacheLen() != 0 {
			t.Errorf("disabled cache recorded hits=%d len=%d", off.Hits, off.CacheLen())
		}
	})
}

func TestStreamMatchesHandBuiltTree(t *testing.T) {
	withRig(t, func(p *sim.Proc, r *rigT) {
		orders := loadOrders(t, p, r, 2000)
		pred := func(tp row.Tuple) bool { return tp[1].(int64) < 50 }
		b := Scan(orders).Where("cust<50", []string{"custkey"}, func(tp row.Tuple) bool { return pred(row.Tuple{nil, tp[0]}) }).
			GroupBy([]string{"custkey"},
				exec.Agg{Fn: exec.AggSum, Col: "total", As: "sum_total"},
				exec.Agg{Fn: exec.AggCount, As: "n"},
			).
			OrderBy(exec.SortSpec{Col: "custkey"})
		hand := &exec.Sort{
			In: &exec.HashAgg{
				In:      &exec.Filter{In: &exec.TableScan{Table: orders}, Pred: pred},
				GroupBy: []string{"custkey"},
				Aggs: []exec.Agg{
					{Fn: exec.AggSum, Col: "total", As: "sum_total"},
					{Fn: exec.AggCount, As: "n"},
				},
			},
			Specs: []exec.SortSpec{{Col: "custkey"}},
		}
		want, err := collect(r.ctx, hand)
		if err != nil {
			t.Fatal(err)
		}
		rows, err := r.pl.Stream(r.ctx, b)
		if err != nil {
			t.Fatal(err)
		}
		var got []row.Tuple
		for {
			tp, ok, err := rows.Next()
			if err != nil {
				t.Fatal(err)
			}
			if !ok {
				break
			}
			got = append(got, tp)
		}
		rows.Close()
		if len(got) != len(want) {
			t.Fatalf("got %d rows, want %d", len(got), len(want))
		}
		for i := range want {
			if fmt.Sprint(got[i]) != fmt.Sprint(want[i]) {
				t.Fatalf("row %d: got %v want %v", i, got[i], want[i])
			}
		}
		// And a second, re-parameterized run (cache hit) must agree too.
		n, err := r.pl.Run(r.ctx, b)
		if err != nil || n != int64(len(want)) {
			t.Errorf("cached rerun n=%d err=%v", n, err)
		}
		if r.pl.Hits == 0 {
			t.Error("second run did not hit the plan cache")
		}
	})
}

func TestJoinStrategyChoice(t *testing.T) {
	withRig(t, func(p *sim.Proc, r *rigT) {
		orders := loadOrders(t, p, r, 2000)
		sch := row.NewSchema(
			row.Column{Name: "ckey", Type: row.Int64},
			row.Column{Name: "name", Type: row.Int64},
		)
		cust, err := r.cat.CreateTable(p, "cust", sch, "ckey")
		if err != nil {
			t.Fatal(err)
		}
		var rows []row.Tuple
		for i := 0; i < 5000; i++ {
			rows = append(rows, row.Tuple{int64(i), int64(i)})
		}
		if err := cust.BulkLoad(p, rows); err != nil {
			t.Fatal(err)
		}
		if _, err := r.cat.CreateIndex(p, "ix_cust_ckey", "cust", "ckey"); err != nil {
			t.Fatal(err)
		}

		// Tiny outer vs indexed inner with disjoint names: INLJ territory.
		one := func(tp row.Tuple) bool { return tp[0].(int64) == 7 }
		b := Scan(orders).Where("pk=7", []string{"orderkey"}, one).Limit(1).Select("custkey").
			JoinOn(Scan(cust), []string{"custkey"}, []string{"ckey"})
		op, err := r.pl.Lower(r.ctx, b)
		if err != nil {
			t.Fatal(err)
		}
		if _, ok := op.(*exec.IndexNestedLoopJoin); !ok {
			t.Errorf("small outer lowered to %T, want INLJ", op)
		}

		// Full outer: the hash join must win.
		b2 := Scan(orders).Select("custkey").
			JoinOn(Scan(cust), []string{"custkey"}, []string{"ckey"})
		op2, err := r.pl.Lower(r.ctx, b2)
		if err != nil {
			t.Fatal(err)
		}
		if _, ok := op2.(*exec.HashJoin); !ok {
			t.Errorf("full outer lowered to %T, want HashJoin", op2)
		}

		// Shared column names must force the hash join (schema naming).
		b3 := Scan(orders).Where("pk=7", []string{"orderkey"}, one).
			Join(Scan(orders), "orderkey")
		op3, err := r.pl.Lower(r.ctx, b3)
		if err != nil {
			t.Fatal(err)
		}
		if _, ok := op3.(*exec.HashJoin); !ok {
			t.Errorf("self-join lowered to %T, want HashJoin", op3)
		}
	})
}

func TestAggLowersToParallelAgg(t *testing.T) {
	withRig(t, func(p *sim.Proc, r *rigT) {
		orders := loadOrders(t, p, r, 5000)
		b := Scan(orders).
			Where("big", []string{"total"}, func(tp row.Tuple) bool { return tp[0].(float64) > 100 }).
			GroupBy([]string{"custkey"}, exec.Agg{Fn: exec.AggSum, Col: "total", As: "s"})
		op, err := r.pl.Lower(r.ctx, b)
		if err != nil {
			t.Fatal(err)
		}
		if _, ok := op.(*exec.ParallelAgg); !ok {
			t.Errorf("agg over large scan at DOP 4 lowered to %T, want ParallelAgg", op)
		}
		// Serial context: plain HashAgg.
		serialCtx := *r.ctx
		serialCtx.DOP = 1
		op2, err := r.pl.Lower(&serialCtx, b)
		if err != nil {
			t.Fatal(err)
		}
		if _, ok := op2.(*exec.HashAgg); !ok {
			t.Errorf("agg at DOP 1 lowered to %T, want HashAgg", op2)
		}
	})
}

// TestFilterLowersIntoParallelScan lowers filter-over-scan at DOP 4:
// the predicate runs in the scan's partitions, with no Filter above the
// exchange, and keeps the rows it keeps serially. A predicate naming a
// column the table lacks fails Lower with the same error at DOP 1 and 4.
func TestFilterLowersIntoParallelScan(t *testing.T) {
	withRig(t, func(p *sim.Proc, r *rigT) {
		orders := loadOrders(t, p, r, 5000)
		b := Scan(orders).Where("late", []string{"total"}, func(tp row.Tuple) bool { return tp[0].(float64) >= 4500 })
		op, err := r.pl.Lower(r.ctx, b)
		if err != nil {
			t.Fatal(err)
		}
		if ps, ok := op.(*exec.ParallelScan); !ok || len(ps.Preds) != 1 {
			t.Fatalf("filter over a scan at DOP 4 lowered to %s, want a parallel scan evaluating the predicate", render(op))
		}
		if n, err := exec.Run(r.ctx, op); err != nil || n != 500 {
			t.Errorf("parallel scan kept %d rows, %v; want 500", n, err)
		}
		serialCtx := *r.ctx
		serialCtx.DOP = 1
		typo := Scan(orders).Where("typo", []string{"totl"}, anyRow)
		_, err4 := r.pl.Lower(r.ctx, typo)
		_, err1 := r.pl.Lower(&serialCtx, typo)
		if err4 == nil || err1 == nil || err4.Error() != err1.Error() {
			t.Errorf("undeclared column: Lower at DOP 4 = %v, at DOP 1 = %v; want the same error", err4, err1)
		}
	})
}

// collect drains an operator tree into a slice.
func collect(c *exec.Ctx, op exec.Op) ([]row.Tuple, error) {
	r, err := exec.Open(c, op)
	if err != nil {
		return nil, err
	}
	var out []row.Tuple
	for {
		t, ok, err := r.Next()
		if err != nil || !ok {
			if cerr := r.Close(); err == nil {
				err = cerr
			}
			return out, err
		}
		out = append(out, t)
	}
}
