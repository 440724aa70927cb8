package tpch

import (
	"strings"

	"remotedb/internal/engine/exec"
	"remotedb/internal/engine/plan"
	"remotedb/internal/engine/row"
)

// Query is one of the 22 TPC-H queries. Final runs the query's
// preliminary stages (the subquery pipelines, streamed into lookup
// state) and returns the plan of the last one, whose rows are the
// query's result. Every stage is expressed through the plan.Builder API
// and runs via the DB's planner, so repeated executions hit the plan
// cache and results stream row by row.
type Query struct {
	ID    int
	Name  string
	Final func(c *exec.Ctx, db *DB) (*plan.Builder, error)
}

// Run executes the query, discarding the rows (the benchmarks measure
// execution, not consumption).
func (q Query) Run(c *exec.Ctx, db *DB) error {
	b, err := q.Final(c, db)
	if err != nil {
		return err
	}
	_, err = db.planner().Run(c, b)
	return err
}

// Queries returns the 22-query set.
func Queries() []Query {
	return []Query{
		{1, "Q1 pricing summary", q1},
		{2, "Q2 minimum cost supplier", q2},
		{3, "Q3 shipping priority", q3},
		{4, "Q4 order priority checking", q4},
		{5, "Q5 local supplier volume", q5},
		{6, "Q6 forecasting revenue", q6},
		{7, "Q7 volume shipping", q7},
		{8, "Q8 national market share", q8},
		{9, "Q9 product type profit", q9},
		{10, "Q10 returned item reporting", q10},
		{11, "Q11 important stock", q11},
		{12, "Q12 shipping modes", q12},
		{13, "Q13 customer distribution", q13},
		{14, "Q14 promotion effect", q14},
		{15, "Q15 top supplier", q15},
		{16, "Q16 parts/supplier relationship", q16},
		{17, "Q17 small-quantity-order revenue", q17},
		{18, "Q18 large volume customer", q18},
		{19, "Q19 discounted revenue", q19},
		{20, "Q20 potential part promotion", q20},
		{21, "Q21 suppliers who kept orders waiting", q21},
		{22, "Q22 global sales opportunity", q22},
	}
}

// QueryByID returns one query.
func QueryByID(id int) Query {
	for _, q := range Queries() {
		if q.ID == id {
			return q
		}
	}
	panic("tpch: no such query")
}

func q1(c *exec.Ctx, db *DB) (*plan.Builder, error) {
	return plan.Scan(db.Lineitem).
		Where("shipdate<=19980902", []string{"shipdate"}, func(t row.Tuple) bool { return t[0].(int64) <= 19980902 }).
		GroupBy([]string{"returnflag", "linestatus"},
			exec.Agg{Fn: exec.AggSum, Col: "quantity", As: "sum_qty"},
			exec.Agg{Fn: exec.AggSum, Col: "extendedprice", As: "sum_base"},
			exec.Agg{Fn: exec.AggAvg, Col: "quantity", As: "avg_qty"},
			exec.Agg{Fn: exec.AggAvg, Col: "extendedprice", As: "avg_price"},
			exec.Agg{Fn: exec.AggAvg, Col: "discount", As: "avg_disc"},
			exec.Agg{Fn: exec.AggCount, As: "count_order"},
		).
		OrderBy(exec.SortSpec{Col: "returnflag"}, exec.SortSpec{Col: "linestatus"}), nil
}

func q2(c *exec.Ctx, db *DB) (*plan.Builder, error) {
	j1 := plan.Scan(db.Part).
		Where("size=15", []string{"size"}, func(t row.Tuple) bool { return t[0].(int64) == 15 }).
		Join(plan.Scan(db.PartSupp), "partkey")
	return plan.Scan(db.Supplier).
		Join(j1, "suppkey").
		GroupBy([]string{"partkey"}, exec.Agg{Fn: exec.AggMin, Col: "supplycost", As: "min_cost"}).
		Top(100, exec.SortSpec{Col: "min_cost"}), nil
}

func q3(c *exec.Ctx, db *DB) (*plan.Builder, error) {
	return plan.Scan(db.Customer).
		Where("mktsegment=BUILDING", []string{"mktsegment"}, func(t row.Tuple) bool { return t[0].(string) == "BUILDING" }).
		Join(plan.Scan(db.Orders).
			Where("orderdate<19950315", []string{"orderdate"}, func(t row.Tuple) bool { return t[0].(int64) < 19950315 }),
			"custkey").
		Join(plan.Scan(db.Lineitem).
			Where("shipdate>19950315", []string{"shipdate"}, func(t row.Tuple) bool { return t[0].(int64) > 19950315 }),
			"orderkey").
		GroupBy([]string{"orderkey"}, exec.Agg{Fn: exec.AggSum, Col: "extendedprice", As: "revenue"}).
		Top(10, exec.SortSpec{Col: "revenue", Desc: true}), nil
}

func q4(c *exec.Ctx, db *DB) (*plan.Builder, error) {
	return plan.Scan(db.Orders).
		Where("orderdate in 1993Q3", []string{"orderdate"}, func(t row.Tuple) bool {
			d := t[0].(int64)
			return d >= 19930701 && d < 19931001
		}).
		Join(plan.Scan(db.Lineitem).
			Where("receiptdate%7!=0", []string{"receiptdate"}, func(t row.Tuple) bool { return t[0].(int64)%7 != 0 }),
			"orderkey").
		GroupBy([]string{"orderpriority"}, exec.Agg{Fn: exec.AggCount, As: "order_count"}).
		OrderBy(exec.SortSpec{Col: "orderpriority"}), nil
}

func q5(c *exec.Ctx, db *DB) (*plan.Builder, error) {
	j2 := plan.Scan(db.Customer).
		Join(plan.Scan(db.Orders).
			Where("orderdate in 1994", []string{"orderdate"}, func(t row.Tuple) bool {
				d := t[0].(int64)
				return d >= 19940101 && d < 19950101
			}),
			"custkey").
		Join(plan.Scan(db.Lineitem), "orderkey")
	return plan.Scan(db.Nation).
		Join(j2, "nationkey").
		GroupBy([]string{"name"}, exec.Agg{Fn: exec.AggSum, Col: "extendedprice", As: "revenue"}).
		OrderBy(exec.SortSpec{Col: "revenue", Desc: true}), nil
}

func q6(c *exec.Ctx, db *DB) (*plan.Builder, error) {
	return plan.Scan(db.Lineitem).
		Where("shipdate in 1994", []string{"shipdate"}, func(t row.Tuple) bool {
			d := t[0].(int64)
			return d >= 19940101 && d < 19950101
		}).
		Where("discount in [.05,.07]", []string{"discount"}, func(t row.Tuple) bool {
			d := t[0].(float64)
			return d >= 0.05 && d <= 0.07
		}).
		Where("quantity<24", []string{"quantity"}, func(t row.Tuple) bool { return t[0].(float64) < 24 }).
		GroupBy(nil, exec.Agg{Fn: exec.AggSum, Col: "extendedprice", As: "revenue"}), nil
}

func q7(c *exec.Ctx, db *DB) (*plan.Builder, error) {
	j2 := plan.Scan(db.Supplier).
		Where("nation in {6,7}", []string{"nationkey"}, func(t row.Tuple) bool { k := t[0].(int64); return k == 6 || k == 7 }).
		Join(plan.Scan(db.Lineitem), "suppkey").
		Join(plan.Scan(db.Orders), "orderkey")
	return plan.Scan(db.Customer).
		Where("nation in {6,7}", []string{"nationkey"}, func(t row.Tuple) bool { k := t[0].(int64); return k == 6 || k == 7 }).
		Join(j2, "custkey").
		GroupBy([]string{"nationkey"}, exec.Agg{Fn: exec.AggSum, Col: "extendedprice", As: "revenue"}).
		OrderBy(exec.SortSpec{Col: "nationkey"}), nil
}

func q8(c *exec.Ctx, db *DB) (*plan.Builder, error) {
	return plan.Scan(db.Part).
		Where("type=ECONOMY ANODIZED STEEL", []string{"type"}, func(t row.Tuple) bool { return t[0].(string) == "ECONOMY ANODIZED STEEL" }).
		Join(plan.Scan(db.Lineitem), "partkey").
		Join(plan.Scan(db.Orders), "orderkey").
		GroupBy([]string{"orderdate"}, exec.Agg{Fn: exec.AggSum, Col: "extendedprice", As: "volume"}).
		Top(50, exec.SortSpec{Col: "volume", Desc: true}), nil
}

func q9(c *exec.Ctx, db *DB) (*plan.Builder, error) {
	j1 := plan.Scan(db.Part).
		Where("name has 7", []string{"name"}, func(t row.Tuple) bool { return strings.Contains(t[0].(string), "7") }).
		Join(plan.Scan(db.Lineitem), "partkey")
	return plan.Scan(db.Supplier).
		Join(j1, "suppkey").
		GroupBy([]string{"nationkey"}, exec.Agg{Fn: exec.AggSum, Col: "extendedprice", As: "profit"}).
		OrderBy(exec.SortSpec{Col: "profit", Desc: true}), nil
}

func q10(c *exec.Ctx, db *DB) (*plan.Builder, error) {
	// Join up to customers, then a large group-by that the grant cannot
	// hold: Q10 is one of the paper's two spilling queries.
	j1 := plan.Scan(db.Orders).
		Where("orderdate in 1993Q4", []string{"orderdate"}, func(t row.Tuple) bool {
			d := t[0].(int64)
			return d >= 19931001 && d < 19940101
		}).
		Join(plan.Scan(db.Lineitem).
			Where("returnflag=R", []string{"returnflag"}, func(t row.Tuple) bool { return t[0].(string) == "R" }),
			"orderkey")
	return plan.Scan(db.Customer).
		Join(j1, "custkey").
		GroupBy([]string{"custkey"}, exec.Agg{Fn: exec.AggSum, Col: "extendedprice", As: "revenue"}).
		Top(20, exec.SortSpec{Col: "revenue", Desc: true}), nil
}

func q11(c *exec.Ctx, db *DB) (*plan.Builder, error) {
	// Stage 1: total value, streamed (a single scalar row).
	join := func() *plan.Builder {
		return plan.Scan(db.Supplier).Join(plan.Scan(db.PartSupp), "suppkey")
	}
	rows, err := db.planner().Stream(c, join().
		GroupBy(nil, exec.Agg{Fn: exec.AggSum, Col: "supplycost", As: "total"}))
	if err != nil {
		return nil, err
	}
	threshold := 0.0
	if t, ok, err := rows.Next(); err != nil {
		return nil, err
	} else if ok {
		threshold = t[0].(float64) * 0.0001
	}
	if err := rows.Close(); err != nil {
		return nil, err
	}
	// Stage 2: groups above the threshold.
	return join().
		GroupBy([]string{"partkey"}, exec.Agg{Fn: exec.AggSum, Col: "supplycost", As: "value"}).
		Where("value>threshold", []string{"value"}, func(t row.Tuple) bool { return t[0].(float64) > threshold }).
		OrderBy(exec.SortSpec{Col: "value", Desc: true}), nil
}

func q12(c *exec.Ctx, db *DB) (*plan.Builder, error) {
	return plan.Scan(db.Lineitem).
		Where("shipmode in {MAIL,SHIP}", []string{"shipmode"}, func(t row.Tuple) bool {
			m := t[0].(string)
			return m == "MAIL" || m == "SHIP"
		}).
		Where("receiptdate in 1994", []string{"receiptdate"}, func(t row.Tuple) bool {
			d := t[0].(int64)
			return d >= 19940101 && d < 19950101
		}).
		Join(plan.Scan(db.Orders), "orderkey").
		GroupBy([]string{"shipmode"}, exec.Agg{Fn: exec.AggCount, As: "line_count"}).
		OrderBy(exec.SortSpec{Col: "shipmode"}), nil
}

func q13(c *exec.Ctx, db *DB) (*plan.Builder, error) {
	return plan.Scan(db.Orders).
		GroupBy([]string{"custkey"}, exec.Agg{Fn: exec.AggCount, As: "c_count"}).
		GroupBy([]string{"c_count"}, exec.Agg{Fn: exec.AggCount, As: "custdist"}).
		OrderBy(exec.SortSpec{Col: "custdist", Desc: true}), nil
}

func q14(c *exec.Ctx, db *DB) (*plan.Builder, error) {
	return plan.Scan(db.Part).
		Join(plan.Scan(db.Lineitem).
			Where("shipdate in 1995-09", []string{"shipdate"}, func(t row.Tuple) bool {
				d := t[0].(int64)
				return d >= 19950901 && d < 19951001
			}),
			"partkey").
		GroupBy(nil, exec.Agg{Fn: exec.AggSum, Col: "extendedprice", As: "revenue"}), nil
}

func q15(c *exec.Ctx, db *DB) (*plan.Builder, error) {
	perSupp := func() *plan.Builder {
		return plan.Scan(db.Lineitem).
			Where("shipdate in 1996Q1", []string{"shipdate"}, func(t row.Tuple) bool {
				d := t[0].(int64)
				return d >= 19960101 && d < 19960401
			}).
			GroupBy([]string{"suppkey"}, exec.Agg{Fn: exec.AggSum, Col: "extendedprice", As: "total_revenue"})
	}
	// Stage 1: find the best revenue, streaming over the groups.
	rows, err := db.planner().Stream(c, perSupp())
	if err != nil {
		return nil, err
	}
	best := 0.0
	for {
		t, ok, err := rows.Next()
		if err != nil {
			return nil, err
		}
		if !ok {
			break
		}
		if v := t[1].(float64); v > best {
			best = v
		}
	}
	if err := rows.Close(); err != nil {
		return nil, err
	}
	// Stage 2: re-run, keeping the top supplier(s). Same shape as stage
	// 1 up to the final filter, so it replans from the cache.
	return perSupp().
		Where("revenue=best", []string{"total_revenue"}, func(t row.Tuple) bool { return t[0].(float64) >= best }), nil
}

func q16(c *exec.Ctx, db *DB) (*plan.Builder, error) {
	return plan.Scan(db.Part).
		Where("brand!=45", []string{"brand"}, func(t row.Tuple) bool { return t[0].(string) != "Brand#45" }).
		Join(plan.Scan(db.PartSupp), "partkey").
		GroupBy([]string{"brand", "type", "size"}, exec.Agg{Fn: exec.AggCount, As: "supplier_cnt"}).
		OrderBy(exec.SortSpec{Col: "supplier_cnt", Desc: true}), nil
}

func q17(c *exec.Ctx, db *DB) (*plan.Builder, error) {
	// Stage 1: average quantity per part, streamed into a lookup map
	// (the correlated subquery's memo).
	rows, err := db.planner().Stream(c, plan.Scan(db.Lineitem).
		GroupBy([]string{"partkey"}, exec.Agg{Fn: exec.AggAvg, Col: "quantity", As: "avg_qty"}))
	if err != nil {
		return nil, err
	}
	avg := make(map[int64]float64)
	for {
		t, ok, err := rows.Next()
		if err != nil {
			return nil, err
		}
		if !ok {
			break
		}
		avg[t[0].(int64)] = t[1].(float64)
	}
	if err := rows.Close(); err != nil {
		return nil, err
	}
	return plan.Scan(db.Part).
		Where("brand=23", []string{"brand"}, func(t row.Tuple) bool { return t[0].(string) == "Brand#23" }).
		Where("container=MED BOX", []string{"container"}, func(t row.Tuple) bool { return t[0].(string) == "MED BOX" }).
		Join(plan.Scan(db.Lineitem).
			Where("qty<0.2*avg", []string{"quantity", "partkey"}, func(t row.Tuple) bool {
				return t[0].(float64) < 0.2*avg[t[1].(int64)]
			}),
			"partkey").
		GroupBy(nil, exec.Agg{Fn: exec.AggSum, Col: "extendedprice", As: "avg_yearly"}), nil
}

func q18(c *exec.Ctx, db *DB) (*plan.Builder, error) {
	// Large-volume customers: a full group-by over lineitem (spills —
	// the paper's other spilling query), filtered, joined up, and
	// re-joined with lineitem for the detail rows: the memory-hungry
	// tail of the plan.
	return plan.Scan(db.Lineitem).
		GroupBy([]string{"orderkey"}, exec.Agg{Fn: exec.AggSum, Col: "quantity", As: "sum_qty"}).
		Where("sum_qty>70", []string{"sum_qty"}, func(t row.Tuple) bool { return t[0].(float64) > 70 }).
		Join(plan.Scan(db.Orders), "orderkey").
		Join(plan.Scan(db.Lineitem), "orderkey").
		Top(100, exec.SortSpec{Col: "totalprice", Desc: true}), nil
}

func q19(c *exec.Ctx, db *DB) (*plan.Builder, error) {
	return plan.Scan(db.Part).
		Where("container in set", []string{"container"}, func(t row.Tuple) bool {
			s := t[0].(string)
			return s == "SM CASE" || s == "MED BOX" || s == "LG JAR"
		}).
		Join(plan.Scan(db.Lineitem).
			Where("quantity in [1,30]", []string{"quantity"}, func(t row.Tuple) bool {
				q := t[0].(float64)
				return q >= 1 && q <= 30
			}),
			"partkey").
		GroupBy(nil, exec.Agg{Fn: exec.AggSum, Col: "extendedprice", As: "revenue"}), nil
}

func q20(c *exec.Ctx, db *DB) (*plan.Builder, error) {
	halfQty := plan.Scan(db.Lineitem).
		Where("shipdate in 1994", []string{"shipdate"}, func(t row.Tuple) bool {
			d := t[0].(int64)
			return d >= 19940101 && d < 19950101
		}).
		GroupBy([]string{"partkey", "suppkey"}, exec.Agg{Fn: exec.AggSum, Col: "quantity", As: "half_qty"})
	// The join output carries both sides' suppkey; the probe side's copy
	// is disambiguated as suppkey_1 (HashJoin naming).
	joined := halfQty.Join(plan.Scan(db.PartSupp), "partkey", "suppkey")
	return joined.
		Where("avail>half/2", []string{"availqty", "half_qty"}, func(t row.Tuple) bool {
			return float64(t[0].(int64)) > 0.5*t[1].(float64)
		}).
		GroupBy([]string{"suppkey_1"}, exec.Agg{Fn: exec.AggCount, As: "parts"}), nil
}

func q21(c *exec.Ctx, db *DB) (*plan.Builder, error) {
	j1 := plan.Scan(db.Orders).
		Where("orderstatus=F", []string{"orderstatus"}, func(t row.Tuple) bool { return t[0].(string) == "F" }).
		Join(plan.Scan(db.Lineitem).
			Where("receiptdate%5=0", []string{"receiptdate"}, func(t row.Tuple) bool { return t[0].(int64)%5 == 0 }),
			"orderkey")
	return plan.Scan(db.Supplier).
		Join(j1, "suppkey").
		GroupBy([]string{"name"}, exec.Agg{Fn: exec.AggCount, As: "numwait"}).
		Top(100, exec.SortSpec{Col: "numwait", Desc: true}), nil
}

func q22(c *exec.Ctx, db *DB) (*plan.Builder, error) {
	// Stage 1: average positive account balance (scalar, streamed).
	rows, err := db.planner().Stream(c, plan.Scan(db.Customer).
		Where("acctbal>0", []string{"acctbal"}, func(t row.Tuple) bool { return t[0].(float64) > 0 }).
		GroupBy(nil, exec.Agg{Fn: exec.AggAvg, Col: "acctbal", As: "avg_bal"}))
	if err != nil {
		return nil, err
	}
	avgBal := 0.0
	if t, ok, err := rows.Next(); err != nil {
		return nil, err
	} else if ok {
		avgBal = t[0].(float64)
	}
	if err := rows.Close(); err != nil {
		return nil, err
	}
	// Stage 2: which customers have orders (anti join via order counts),
	// streamed into the membership set.
	counts, err := db.planner().Stream(c, plan.Scan(db.Orders).
		GroupBy([]string{"custkey"}, exec.Agg{Fn: exec.AggCount, As: "n"}))
	if err != nil {
		return nil, err
	}
	has := make(map[int64]bool)
	for {
		t, ok, err := counts.Next()
		if err != nil {
			return nil, err
		}
		if !ok {
			break
		}
		has[t[0].(int64)] = true
	}
	if err := counts.Close(); err != nil {
		return nil, err
	}
	return plan.Scan(db.Customer).
		Where("bal>avg and no orders", []string{"acctbal", "custkey"}, func(t row.Tuple) bool {
			return t[0].(float64) > avgBal && !has[t[1].(int64)]
		}).
		GroupBy([]string{"nationkey"},
			exec.Agg{Fn: exec.AggCount, As: "numcust"},
			exec.Agg{Fn: exec.AggSum, Col: "acctbal", As: "totacctbal"},
		).
		OrderBy(exec.SortSpec{Col: "nationkey"}), nil
}
