package plan

import (
	"fmt"
	"strings"
	"testing"

	"remotedb/internal/engine/catalog"
	"remotedb/internal/engine/exec"
	"remotedb/internal/engine/row"
	"remotedb/internal/sim"
)

// tpchTables creates empty tables with the TPC-H stand-in's column
// lists: the pass works on names, so the shapes need no rows.
func tpchTables(t *testing.T, p *sim.Proc, r *rigT) map[string]*catalog.Table {
	t.Helper()
	defs := []struct {
		name string
		pk   []string
		cols string // name:type, i = Int64, f = Float64, s = String
	}{
		{"nation", []string{"nationkey"}, "nationkey:i name:s regionkey:i"},
		{"customer", []string{"custkey"}, "custkey:i name:s nationkey:i acctbal:f mktsegment:s"},
		{"orders", []string{"orderkey"}, "orderkey:i custkey:i orderstatus:s totalprice:f orderdate:i orderpriority:s"},
		{"partsupp", []string{"partkey", "suppkey"}, "partkey:i suppkey:i availqty:i supplycost:f"},
		{"lineitem", []string{"orderkey", "linenumber"}, "orderkey:i linenumber:i partkey:i suppkey:i quantity:f extendedprice:f " +
			"discount:f tax:f returnflag:s linestatus:s shipdate:i receiptdate:i shipmode:s"},
	}
	types := map[string]row.Type{"i": row.Int64, "f": row.Float64, "s": row.String}
	out := make(map[string]*catalog.Table)
	for _, d := range defs {
		var cols []row.Column
		for _, c := range strings.Fields(d.cols) {
			name, typ, _ := strings.Cut(c, ":")
			cols = append(cols, row.Column{Name: name, Type: types[typ]})
		}
		tbl, err := r.cat.CreateTable(p, d.name, row.NewSchema(cols...), d.pk...)
		if err != nil {
			t.Fatal(err)
		}
		out[d.name] = tbl
	}
	return out
}

// render draws a lowered tree with what each leaf materialises and each
// join emits ("*" = everything). A predicate a scan evaluates itself
// follows the scan as "where" and the columns it declares; a parallel
// scan is marked "parallel".
func render(op exec.Op) string {
	cols := func(c []string) string {
		if c == nil {
			return "*"
		}
		return fmt.Sprint(c)
	}
	scan := func(tbl *catalog.Table, c []string, preds []exec.ScanPred) string {
		out := tbl.Name + cols(c)
		for _, p := range preds {
			names := []string{}
			for _, ord := range p.Ords {
				names = append(names, tbl.Schema.Columns[ord].Name)
			}
			out += fmt.Sprint(" where ", names)
		}
		return out
	}
	switch o := op.(type) {
	case *exec.TableScan:
		return scan(o.Table, o.Cols, o.Preds)
	case *exec.ParallelScan:
		return "parallel " + scan(o.Table, o.Cols, o.Preds)
	case *exec.Filter:
		return "filter(" + render(o.In) + ")"
	case *exec.HashAgg:
		return "agg(" + render(o.In) + ")"
	case *exec.TopN:
		return "top(" + render(o.In) + ")"
	case *exec.HashJoin:
		out := "*"
		if o.Out != nil {
			names := []string{}
			for _, oc := range o.Out {
				names = append(names, oc.As)
			}
			out = fmt.Sprint(names)
		}
		return "join" + out + "(" + render(o.Build) + ", " + render(o.Probe) + ")"
	}
	return fmt.Sprintf("%T", op)
}

var anyRow = func(row.Tuple) bool { return true }

func TestNeededColumns(t *testing.T) {
	withRig(t, func(p *sim.Proc, r *rigT) {
		r.ctx.DOP = 1
		tb := tpchTables(t, p, r)
		lower := func(b *Builder) exec.Op {
			t.Helper()
			op, err := r.pl.Lower(r.ctx, b)
			if err != nil {
				t.Fatal(err)
			}
			return op
		}

		// Q3. Each filter runs inside its scan, on the row image. A
		// column only a filter reads (mktsegment, orderdate, shipdate) is
		// still materialised by that scan and dropped by the first
		// operator above that rebuilds rows: the join, which emits only
		// what the aggregate reads.
		q3 := Scan(tb["customer"]).Where("building", []string{"mktsegment"}, anyRow).
			Join(Scan(tb["orders"]).Where("early", []string{"orderdate"}, anyRow), "custkey").
			Join(Scan(tb["lineitem"]).Where("late", []string{"shipdate"}, anyRow), "orderkey").
			GroupBy([]string{"orderkey"}, exec.Agg{Fn: exec.AggSum, Col: "extendedprice", As: "revenue"}).
			Top(10, exec.SortSpec{Col: "revenue", Desc: true})
		if got, want := render(lower(q3)), "top(agg(join[orderkey extendedprice]("+
			"join[orderkey](customer[custkey mktsegment] where [mktsegment], orders[orderkey custkey orderdate] where [orderdate]), "+
			"lineitem[orderkey extendedprice shipdate] where [shipdate])))"; got != want {
			t.Errorf("Q3 lowered to\n  %s\nwant\n  %s", got, want)
		}

		// Q5: a four-level join chain. Each level keeps its own keys and
		// what the levels above asked for; "name" is nation's, customer's
		// (name_1 in the join's namespace) is never read.
		q5 := Scan(tb["nation"]).
			Join(Scan(tb["customer"]).
				Join(Scan(tb["orders"]).Where("1994", []string{"orderdate"}, anyRow), "custkey").
				Join(Scan(tb["lineitem"]), "orderkey"), "nationkey").
			GroupBy([]string{"name"}, exec.Agg{Fn: exec.AggSum, Col: "extendedprice", As: "revenue"})
		if got, want := render(lower(q5)), "agg(join[name extendedprice](nation[nationkey name], "+
			"join[nationkey extendedprice](join[nationkey orderkey](customer[custkey nationkey], "+
			"orders[orderkey custkey orderdate] where [orderdate]), lineitem[orderkey extendedprice])))"; got != want {
			t.Errorf("Q5 lowered to\n  %s\nwant\n  %s", got, want)
		}

		// Q18: the root's parent consumes everything, so nothing on the
		// way to the root narrows — both joins emit all columns, orders
		// and the second lineitem are read whole — while the lineitem
		// scan under the aggregate keeps the two columns it reads.
		q18 := Scan(tb["lineitem"]).
			GroupBy([]string{"orderkey"}, exec.Agg{Fn: exec.AggSum, Col: "quantity", As: "sum_qty"}).
			Where("big", []string{"sum_qty"}, anyRow).
			Join(Scan(tb["orders"]), "orderkey").
			Join(Scan(tb["lineitem"]), "orderkey").
			Top(100, exec.SortSpec{Col: "totalprice", Desc: true})
		op18 := lower(q18)
		if got, want := render(op18), "top(join*(join*(filter(agg(lineitem[orderkey quantity])), orders*), lineitem*))"; got != want {
			t.Errorf("Q18 lowered to\n  %s\nwant\n  %s", got, want)
		}
		if got, want := op18.Schema().Len(), 2+tb["orders"].Schema.Len()+tb["lineitem"].Schema.Len(); got != want {
			t.Errorf("Q18 returns %d columns, want all %d", got, want)
		}

		// Q20: partsupp's suppkey collides with the aggregate's and is
		// suppkey_1 in the join's output. It stays suppkey_1 when the
		// join emits three columns instead of seven, and the query's
		// output names are the unpruned plan's.
		q20 := Scan(tb["lineitem"]).Where("1994", []string{"shipdate"}, anyRow).
			GroupBy([]string{"partkey", "suppkey"}, exec.Agg{Fn: exec.AggSum, Col: "quantity", As: "half_qty"}).
			Join(Scan(tb["partsupp"]), "partkey", "suppkey").
			Where("avail", []string{"availqty", "half_qty"}, anyRow).
			GroupBy([]string{"suppkey_1"}, exec.Agg{Fn: exec.AggCount, As: "parts"})
		op20 := lower(q20)
		if got, want := render(op20), "agg(filter(join[half_qty suppkey_1 availqty]("+
			"agg(lineitem[partkey suppkey quantity shipdate] where [shipdate]), partsupp[partkey suppkey availqty])))"; got != want {
			t.Errorf("Q20 lowered to\n  %s\nwant\n  %s", got, want)
		}
		if got := fmt.Sprint(op20.Schema().Names()); got != "[suppkey_1 parts]" {
			t.Errorf("Q20 output columns %s, want [suppkey_1 parts]", got)
		}

		// A plan-cache hit lowers from the stored lists: same tree, and
		// the very slices the miss computed, not recomputed ones.
		hits := r.pl.Hits
		again := lower(q20)
		if r.pl.Hits != hits+1 {
			t.Fatalf("second lowering of Q20 was not a cache hit")
		}
		if render(again) != render(op20) {
			t.Errorf("cache hit lowered to\n  %s\nmiss lowered to\n  %s", render(again), render(op20))
		}
		join := func(op exec.Op) *exec.HashJoin { return op.(*exec.HashAgg).In.(*exec.Filter).In.(*exec.HashJoin) }
		if a, b := join(op20), join(again); &a.Out[0] != &b.Out[0] ||
			&a.Probe.(*exec.TableScan).Cols[0] != &b.Probe.(*exec.TableScan).Cols[0] {
			t.Error("cache hit rebuilt the column lists instead of reusing the stored ones")
		}

		// A predicate must declare what it reads. A column its input does
		// not have — misspelt, or aggregated away below — is an error at
		// Lower that names it, not a nil at run time.
		for _, tc := range []struct {
			b    *Builder
			want string
		}{
			{Scan(tb["orders"]).Where("typo", []string{"orderdat"}, anyRow), `"orderdat"`},
			{Scan(tb["orders"]).
				GroupBy([]string{"custkey"}, exec.Agg{Fn: exec.AggSum, Col: "totalprice", As: "spent"}).
				Where("gone", []string{"spent", "totalprice"}, anyRow), `"totalprice"`},
		} {
			if _, err := r.pl.Lower(r.ctx, tc.b); err == nil || !strings.Contains(err.Error(), tc.want) {
				t.Errorf("Lower = %v, want an error naming %s", err, tc.want)
			}
		}
	})
}

// TestPredicateSeesDeclaredColumns runs a pruned plan: each predicate
// gets exactly its columns in its order, wherever they sit in the rows
// the filter passes on.
func TestPredicateSeesDeclaredColumns(t *testing.T) {
	withRig(t, func(p *sim.Proc, r *rigT) {
		orders := loadOrders(t, p, r, 1000) // orderkey, custkey = orderkey%100, total = orderkey
		b := Scan(orders).
			Where("total>=500", []string{"total"}, func(tp row.Tuple) bool { return len(tp) == 1 && tp[0].(float64) >= 500 }).
			Where("cust<10 of late orders", []string{"custkey", "orderkey"}, func(tp row.Tuple) bool {
				return len(tp) == 2 && tp[0].(int64) < 10 && tp[1].(int64) >= 900
			}).
			GroupBy([]string{"custkey"}, exec.Agg{Fn: exec.AggCount, As: "n"})
		rows, err := r.pl.Stream(r.ctx, b)
		if err != nil {
			t.Fatal(err)
		}
		n, err := rows.Count()
		if err != nil || n != 10 {
			t.Errorf("groups = %d, %v; want custkeys 0..9 of orders 900..999", n, err)
		}
	})
}
