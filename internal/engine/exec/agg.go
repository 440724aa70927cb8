package exec

import (
	"fmt"

	"remotedb/internal/engine/row"
)

// AggFunc is an aggregate function kind.
type AggFunc int

// Supported aggregates.
const (
	AggSum AggFunc = iota
	AggCount
	AggMin
	AggMax
	AggAvg
)

// Agg describes one aggregate output: Fn over column Col (Col ignored
// for COUNT), named As in the output schema.
type Agg struct {
	Fn  AggFunc
	Col string
	As  string
}

// AggNames returns an aggregate's output column names: the group
// columns followed by one name per aggregate.
func AggNames(groupBy []string, aggs []Agg) []string {
	names := append([]string(nil), groupBy...)
	for _, ag := range aggs {
		name := ag.As
		if name == "" {
			name = fmt.Sprintf("agg%d", len(names))
		}
		names = append(names, name)
	}
	return names
}

// aggSchema builds the output schema: group columns followed by
// aggregate columns. Shared by HashAgg and ParallelAgg.
func aggSchema(in *row.Schema, groupBy []string, aggs []Agg) *row.Schema {
	names := AggNames(groupBy, aggs)
	cols := make([]row.Column, len(names))
	for i, g := range groupBy {
		cols[i] = in.Columns[in.MustOrdinal(g)]
	}
	for i, ag := range aggs {
		typ := row.Float64
		if ag.Fn == AggCount {
			typ = row.Int64
		}
		cols[len(groupBy)+i] = row.Column{Name: names[len(groupBy)+i], Type: typ}
	}
	return row.NewSchema(cols...)
}

// aggState is one group: its group-column values and one cell per
// aggregate.
type aggState struct {
	groupVals []interface{}
	cells     []aggCell
}

// aggCell is one aggregate's running state within a group.
type aggCell struct {
	sum, min, max float64
	count         int64
	seen          bool
}

// aggCore is the group table shared by the serial HashAgg and the
// per-worker partial aggregates of ParallelAgg. Partial states merge
// exactly — AVG is carried as (sum, count) until emit — so a merged
// parallel aggregate equals the serial one.
type aggCore struct {
	aggs      []Agg
	groupOrds []int
	aggOrds   []int
	groups    map[string]*aggState
	order     []string // deterministic output order (first appearance)
	bytes     int64
	key       []byte // group-key scratch
}

func newAggCore(in *row.Schema, groupBy []string, aggs []Agg) (*aggCore, error) {
	core := &aggCore{
		aggs:   aggs,
		groups: make(map[string]*aggState),
	}
	for _, g := range groupBy {
		o := in.Ordinal(g)
		if o < 0 {
			return nil, fmt.Errorf("exec: unknown group column %q", g)
		}
		core.groupOrds = append(core.groupOrds, o)
	}
	core.aggOrds = make([]int, len(aggs))
	for i, ag := range aggs {
		if ag.Fn == AggCount {
			core.aggOrds[i] = -1
			continue
		}
		o := in.Ordinal(ag.Col)
		if o < 0 {
			return nil, fmt.Errorf("exec: unknown aggregate column %q", ag.Col)
		}
		core.aggOrds[i] = o
	}
	return core, nil
}

// add folds one input row into the group table, charging hash CPU.
func (a *aggCore) add(c *Ctx, t row.Tuple) {
	c.chargeCPU(c.CPU.PerHash)
	a.key = appendKey(a.key[:0], t, a.groupOrds)
	st, ok := a.groups[string(a.key)] // no allocation on a hit
	if !ok {
		key := string(a.key)
		vals := make([]interface{}, len(a.groupOrds))
		for i, o := range a.groupOrds {
			vals[i] = t[o]
		}
		st = &aggState{groupVals: vals, cells: make([]aggCell, len(a.aggs))}
		a.groups[key] = st
		a.order = append(a.order, key)
		a.bytes += int64(len(key)) + int64(len(a.aggs))*40
	}
	for i, ag := range a.aggs {
		cell := &st.cells[i]
		cell.count++
		if ag.Fn == AggCount {
			continue
		}
		v := numeric(t[a.aggOrds[i]])
		cell.sum += v
		if !cell.seen || v < cell.min {
			cell.min = v
		}
		if !cell.seen || v > cell.max {
			cell.max = v
		}
		cell.seen = true
	}
}

// consume opens op, folds every row into the table, and closes op.
func (a *aggCore) consume(c *Ctx, op Op) error {
	if err := op.Open(c); err != nil {
		return err
	}
	for {
		t, ok, err := op.Next(c)
		if err != nil {
			op.Close(c)
			return err
		}
		if !ok {
			break
		}
		a.add(c, t)
	}
	return op.Close(c)
}

// mergeFrom folds another partial group table into this one.
func (a *aggCore) mergeFrom(other *aggCore) {
	for _, key := range other.order {
		os := other.groups[key]
		st, ok := a.groups[key]
		if !ok {
			a.groups[key] = os
			a.order = append(a.order, key)
			a.bytes += int64(len(key)) + int64(len(a.aggs))*40
			continue
		}
		for i := range a.aggs {
			cell, oc := &st.cells[i], os.cells[i]
			cell.count += oc.count
			cell.sum += oc.sum
			if oc.seen {
				if !cell.seen || oc.min < cell.min {
					cell.min = oc.min
				}
				if !cell.seen || oc.max > cell.max {
					cell.max = oc.max
				}
				cell.seen = true
			}
		}
	}
}

// emit produces the output rows in first-appearance order.
func (a *aggCore) emit(aggs []Agg) []row.Tuple {
	out := make([]row.Tuple, 0, len(a.order))
	for _, key := range a.order {
		st := a.groups[key]
		t := make(row.Tuple, 0, len(st.groupVals)+len(aggs))
		t = append(t, st.groupVals...)
		for i, ag := range aggs {
			cell := st.cells[i]
			switch ag.Fn {
			case AggSum:
				t = append(t, cell.sum)
			case AggCount:
				t = append(t, cell.count)
			case AggMin:
				t = append(t, cell.min)
			case AggMax:
				t = append(t, cell.max)
			case AggAvg:
				if cell.count == 0 {
					t = append(t, 0.0)
				} else {
					t = append(t, cell.sum/float64(cell.count))
				}
			}
		}
		out = append(out, t)
	}
	return out
}

// HashAgg groups by GroupBy columns and computes the aggregates. Groups
// are kept in memory; the group count in the paper's workloads is small
// relative to the grant (aggregation state is not what spills in the
// evaluated queries — sorts and joins are), so HashAgg never spills and
// instead reports grant pressure through GroupBytes.
type HashAgg struct {
	In      Op
	GroupBy []string
	Aggs    []Agg

	schema *row.Schema
	out    []row.Tuple
	pos    int

	// GroupBytes is the peak memory the group table used.
	GroupBytes int64
}

// Schema returns group columns followed by aggregate columns.
func (a *HashAgg) Schema() *row.Schema {
	if a.schema == nil {
		a.schema = aggSchema(a.In.Schema(), a.GroupBy, a.Aggs)
	}
	return a.schema
}

// numeric coerces a column value for aggregation.
func numeric(v interface{}) float64 {
	switch x := v.(type) {
	case int64:
		return float64(x)
	case float64:
		return x
	}
	panic(fmt.Sprintf("exec: non-numeric aggregate input %T", v))
}

// Open consumes the input and builds the group table.
func (a *HashAgg) Open(c *Ctx) error {
	core, err := newAggCore(a.In.Schema(), a.GroupBy, a.Aggs)
	if err != nil {
		return err
	}
	if err := core.consume(c, a.In); err != nil {
		return err
	}
	a.out = core.emit(a.Aggs)
	a.GroupBytes = core.bytes
	a.pos = 0
	return nil
}

// Next returns the next group row.
func (a *HashAgg) Next(c *Ctx) (row.Tuple, bool, error) {
	if a.pos >= len(a.out) {
		return nil, false, nil
	}
	t := a.out[a.pos]
	a.pos++
	return t, true, nil
}

// Close releases agg state.
func (a *HashAgg) Close(c *Ctx) error {
	a.out = nil
	return nil
}
