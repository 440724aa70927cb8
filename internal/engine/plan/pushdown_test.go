package plan

import (
	"testing"

	"remotedb/internal/engine/catalog"
	"remotedb/internal/engine/exec"
	"remotedb/internal/engine/row"
	"remotedb/internal/rmem"
	"remotedb/internal/sim"
)

// planPushFile backs a pushable segment with an in-memory log; PushRead
// runs the evaluator chunk by chunk, as a donor would.
type planPushFile struct {
	data  []byte
	chunk int
}

func (f *planPushFile) PushChunk() int { return f.chunk }

func (f *planPushFile) ReadAt(p *sim.Proc, b []byte, off int64) error {
	copy(b, f.data[off:off+int64(len(b))])
	return nil
}

func (f *planPushFile) PushRead(p *sim.Proc, off, n int64, q *rmem.PushQuery) ([]byte, rmem.PushStats, error) {
	var stats rmem.PushStats
	var out []byte
	for o := off; o < off+n; o += int64(f.chunk) {
		end := o + int64(f.chunk)
		if end > off+n {
			end = off + n
		}
		res, rows, matched, err := rmem.EvalPush(f.data[o:end], q, out)
		if err != nil {
			return nil, stats, err
		}
		out = res
		stats.RowsScanned += int64(rows)
		stats.RowsMatched += int64(matched)
	}
	stats.BytesScanned = n
	stats.BytesReturned = int64(len(out))
	return out, stats, nil
}

func attachOrdersSegment(t *testing.T, tbl *catalog.Table, n int) {
	t.Helper()
	const chunk = 4096
	var seg []byte
	for i := 0; i < n; i++ {
		img, err := row.Encode(nil, tbl.Schema, row.Tuple{int64(i), int64(i % 100), float64(i)})
		if err != nil {
			t.Fatal(err)
		}
		seg = rmem.AppendPushRecord(seg, img, chunk)
	}
	seg = rmem.PadPushChunk(seg, chunk)
	f := &planPushFile{data: seg, chunk: chunk}
	tbl.SetPushSegment(&catalog.PushSegment{File: f, Rows: int64(n), Bytes: int64(len(seg)), Chunk: chunk})
}

func TestWhereCmpSelectivityInSignature(t *testing.T) {
	withRig(t, func(p *sim.Proc, r *rigT) {
		orders := loadOrders(t, p, r, 100)
		// The comparison value is a parameter: same shape, same entry.
		a := Scan(orders).WhereCmp("custkey", CmpLT, 10, 0.01)
		b := Scan(orders).WhereCmp("custkey", CmpLT, 90, 0.01)
		if Signature(normalize(a.Node()), 4) != Signature(normalize(b.Node()), 4) {
			t.Error("comparison value leaked into signature")
		}
		// The selectivity hint is identity: different hints get their own
		// cached placement.
		c := Scan(orders).WhereCmp("custkey", CmpLT, 10, 1.0)
		if Signature(normalize(a.Node()), 4) == Signature(normalize(c.Node()), 4) {
			t.Error("selectivity hint not part of signature")
		}
	})
}

func TestPushdownLowering(t *testing.T) {
	withRig(t, func(p *sim.Proc, r *rigT) {
		orders := loadOrders(t, p, r, 2000)
		attachOrdersSegment(t, orders, 2000)
		r.pl.Pushdown = true

		// Selective predicate: the optimizer must push the scan to the
		// donors (FetchAll off).
		sel := Scan(orders).WhereCmp("custkey", CmpLT, 10, 0.01)
		op, err := r.pl.Lower(r.ctx, sel)
		if err != nil {
			t.Fatal(err)
		}
		ps, ok := op.(*exec.PushScan)
		if !ok {
			t.Fatalf("selective filter lowered to %T, want PushScan", op)
		}
		if ps.FetchAll {
			t.Error("selective filter chose fetch-all over donor-side eval")
		}
		n, err := r.pl.Run(r.ctx, sel)
		if err != nil || n != 200 {
			t.Errorf("pushed scan n=%d err=%v, want 200", n, err)
		}

		// Non-selective predicate: everything comes back anyway, so the
		// optimizer keeps the eval client-side (fetch-all placement).
		full := Scan(orders).WhereCmp("custkey", CmpGE, 0, 1.0)
		op2, err := r.pl.Lower(r.ctx, full)
		if err != nil {
			t.Fatal(err)
		}
		ps2, ok := op2.(*exec.PushScan)
		if !ok {
			t.Fatalf("full-selectivity filter lowered to %T, want PushScan", op2)
		}
		if !ps2.FetchAll {
			t.Error("full-selectivity filter should place as fetch-all")
		}
		n2, err := r.pl.Run(r.ctx, full)
		if err != nil || n2 != 2000 {
			t.Errorf("fetch-all scan n=%d err=%v, want 2000", n2, err)
		}

		// With pushdown off the same query lowers to an ordinary
		// filtered scan.
		off := NewPlanner(nil, 0)
		op3, err := off.Lower(r.ctx, Scan(orders).WhereCmp("custkey", CmpLT, 10, 0.01))
		if err != nil {
			t.Fatal(err)
		}
		if _, isPush := op3.(*exec.PushScan); isPush {
			t.Error("pushdown-off planner still lowered a PushScan")
		}
	})
}

func TestPushdownResidualPredicate(t *testing.T) {
	withRig(t, func(p *sim.Proc, r *rigT) {
		orders := loadOrders(t, p, r, 2000)
		attachOrdersSegment(t, orders, 2000)
		r.pl.Pushdown = true

		// One pushable leaf, one opaque predicate: the leaf goes to the
		// donors, the opaque part stays as a residual Filter on top.
		b := Scan(orders).
			WhereCmp("custkey", CmpLT, 10, 0.01).
			Where("odd", []string{"orderkey"}, func(tp row.Tuple) bool { return tp[0].(int64)%2 == 1 })
		op, err := r.pl.Lower(r.ctx, b)
		if err != nil {
			t.Fatal(err)
		}
		f, ok := op.(*exec.Filter)
		if !ok {
			t.Fatalf("lowered to %T, want residual Filter over PushScan", op)
		}
		if _, ok := f.In.(*exec.PushScan); !ok {
			t.Fatalf("residual filter wraps %T, want PushScan", f.In)
		}
		n, err := r.pl.Run(r.ctx, b)
		if err != nil || n != 100 {
			t.Errorf("n=%d err=%v, want 100", n, err)
		}
	})
}

func TestPushdownAggLowering(t *testing.T) {
	withRig(t, func(p *sim.Proc, r *rigT) {
		orders := loadOrders(t, p, r, 2000)
		attachOrdersSegment(t, orders, 2000)
		r.pl.Pushdown = true

		b := Scan(orders).WhereCmp("custkey", CmpLT, 5, 0.01).
			GroupBy([]string{"custkey"}, exec.Agg{Fn: exec.AggCount, As: "n"})
		op, err := r.pl.Lower(r.ctx, b)
		if err != nil {
			t.Fatal(err)
		}
		agg, ok := op.(*exec.HashAgg)
		if !ok {
			t.Fatalf("agg lowered to %T, want HashAgg over PushScan", op)
		}
		if _, ok := agg.In.(*exec.PushScan); !ok {
			t.Fatalf("agg input is %T, want PushScan", agg.In)
		}
		n, err := r.pl.Run(r.ctx, b)
		if err != nil || n != 5 {
			t.Errorf("groups=%d err=%v, want 5", n, err)
		}
	})
}

func TestPlacementCachedAndDOPInvalidates(t *testing.T) {
	withRig(t, func(p *sim.Proc, r *rigT) {
		orders := loadOrders(t, p, r, 2000)
		attachOrdersSegment(t, orders, 2000)
		r.pl.Pushdown = true

		q := Scan(orders).WhereCmp("custkey", CmpLT, 10, 0.01)
		if _, err := r.pl.Lower(r.ctx, q); err != nil {
			t.Fatal(err)
		}
		if r.pl.Hits != 0 || r.pl.Misses != 1 {
			t.Fatalf("first lower: hits=%d misses=%d", r.pl.Hits, r.pl.Misses)
		}
		// The placement decision is replayed from the plan cache.
		op, err := r.pl.Lower(r.ctx, q)
		if err != nil {
			t.Fatal(err)
		}
		if r.pl.Hits != 1 || r.pl.Misses != 1 {
			t.Fatalf("second lower: hits=%d misses=%d, want a cache hit", r.pl.Hits, r.pl.Misses)
		}
		if ps, ok := op.(*exec.PushScan); !ok || ps.FetchAll {
			t.Fatalf("cached lowering produced %T (FetchAll?), want pushed PushScan", op)
		}
		// A different DOP is a different signature: the placement is
		// re-costed, not replayed.
		serial := *r.ctx
		serial.DOP = 1
		if _, err := r.pl.Lower(&serial, q); err != nil {
			t.Fatal(err)
		}
		if r.pl.Misses != 2 {
			t.Fatalf("DOP change did not invalidate: hits=%d misses=%d", r.pl.Hits, r.pl.Misses)
		}
	})
}
