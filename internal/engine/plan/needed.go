package plan

import (
	"remotedb/internal/engine/exec"
	"remotedb/internal/engine/row"
)

// Needed columns: projection as a plan property. Top-down from the root,
// each node is told which of its output columns its parent consumes and
// works out what it in turn consumes from its inputs; a leaf then
// materialises only that, and a join emits only that. The root's parent
// consumes everything, so a query's result never changes — only what is
// carried, hashed and spilled on the way there.

// colSet is a set of column names; nil means every column.
type colSet map[string]bool

func setOf(cols ...string) colSet {
	s := make(colSet, len(cols))
	for _, c := range cols {
		s[c] = true
	}
	return s
}

// with returns the set extended by cols (every column stays every
// column).
func (s colSet) with(cols ...string) colSet {
	if s == nil {
		return nil
	}
	out := setOf(cols...)
	for c := range s {
		out[c] = true
	}
	return out
}

// outCols names a node's output columns, in order, with nothing pruned.
// Pruning only ever drops columns from this list, never renames or
// reorders them, so a name resolves the same way before and after.
func outCols(n *Node) []string {
	switch n.Kind {
	case KindScan:
		return n.Table.Schema.Names()
	case KindProject:
		return n.Cols
	case KindAgg:
		return exec.AggNames(n.GroupBy, n.Aggs)
	case KindJoin:
		return exec.JoinNames(outCols(n.Children[0]), outCols(n.Children[1]))
	}
	return outCols(n.Children[0])
}

// childNeeds turns what a node's parent consumes of it into what the
// node consumes of each child: a filter adds the columns its predicates
// declare, a sort its keys, an aggregate replaces the set by its group
// and aggregate columns, and a join maps each wanted output name back
// through the duplicate renaming to the side it came from, adding the
// join keys. For a join it also returns the columns to emit (nil =
// all).
func childNeeds(n *Node, need colSet) (kids []colSet, out []exec.JoinCol) {
	switch n.Kind {
	case KindFilter:
		for _, p := range n.Preds {
			need = need.with(p.Cols...)
		}
	case KindProject:
		need = setOf(n.Cols...)
	case KindSort, KindTop:
		for _, sp := range n.Specs {
			need = need.with(sp.Col)
		}
	case KindAgg:
		need = setOf(n.GroupBy...)
		for _, ag := range n.Aggs {
			if ag.Fn != exec.AggCount {
				need[ag.Col] = true
			}
		}
	case KindJoin:
		if need == nil {
			return []colSet{nil, nil}, nil
		}
		l, r := outCols(n.Children[0]), outCols(n.Children[1])
		ln, rn := setOf(n.LeftCols...), setOf(n.RightCols...)
		out = make([]exec.JoinCol, 0, len(need)) // empty, not nil: emit nothing
		for i, name := range exec.JoinNames(l, r) {
			switch {
			case !need[name]:
			case i < len(l):
				ln[l[i]] = true
				out = append(out, exec.JoinCol{Col: l[i], As: name})
			default:
				rn[r[i-len(l)]] = true
				out = append(out, exec.JoinCol{Probe: true, Col: r[i-len(l)], As: name})
			}
		}
		return []colSet{ln, rn}, out
	}
	return []colSet{need}, nil
}

// leafCols lists, in schema order, the table columns a scan must
// materialise (nil = all of them).
func leafCols(sch *row.Schema, need colSet) []string {
	if need == nil {
		return nil
	}
	cols := make([]string, 0, len(need)) // empty, not nil: a count(*) reads no column
	for _, c := range sch.Columns {
		if need[c.Name] {
			cols = append(cols, c.Name)
		}
	}
	if len(cols) == sch.Len() {
		return nil
	}
	return cols
}
