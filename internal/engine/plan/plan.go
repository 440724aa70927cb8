// Package plan is the engine's logical plan layer: a fluent builder API
// that produces normalized plan trees, a plan cache keyed on the
// normalized form, and a lowering step where the tier-aware cost model
// (internal/engine/opt) chooses the join strategy and scan DOP instead
// of callers hard-coding operators.
//
// Plans are first-class, comparable objects: two queries that differ
// only in their range constants normalize to the same signature
// (prepared-statement semantics), so the second one skips optimization
// entirely — the repeated-query regime the paper targets with millions
// of cloud users running the same application queries.
package plan

import (
	"bytes"
	"fmt"
	"strings"

	"remotedb/internal/engine/catalog"
	"remotedb/internal/engine/exec"
	"remotedb/internal/engine/row"
)

// Kind discriminates logical plan nodes.
type Kind int

// Logical node kinds.
const (
	KindScan Kind = iota
	KindFilter
	KindProject
	KindLimit
	KindJoin
	KindAgg
	KindSort
	KindTop
)

// Pred is a named filter predicate. The name (with the columns it
// declares) is the predicate's identity in the plan signature — the
// closure itself is opaque — so builders must give semantically
// different predicates different names. Fn is handed a tuple of exactly
// Cols, in that order, whatever else its input carries: what a
// predicate reads is what it declares, which is how the planner knows
// which columns a filter keeps alive. Predicates built with WhereCmp
// additionally carry a structured Cmp leaf the optimizer can reason
// about (and push to donors).
type Pred struct {
	Name string
	Cols []string
	Fn   func(row.Tuple) bool
	Cmp  *Cmp
}

// CmpOp is a comparison operator in a structured predicate leaf.
type CmpOp int

// Comparison operators understood by the optimizer.
const (
	CmpEQ CmpOp = iota
	CmpNE
	CmpLT
	CmpLE
	CmpGT
	CmpGE
)

func (op CmpOp) String() string {
	switch op {
	case CmpEQ:
		return "="
	case CmpNE:
		return "!="
	case CmpLT:
		return "<"
	case CmpLE:
		return "<="
	case CmpGT:
		return ">"
	case CmpGE:
		return ">="
	}
	return "?"
}

// Cmp is a structured comparison leaf: column <op> constant. The
// constant is a parameter (excluded from the plan signature, like range
// bounds); Sel is the caller's selectivity estimate for the leaf and
// *is* identity — the cardinality heuristics cannot tell a 0.1%
// predicate from a 100% one, and the two deserve different cached
// placements.
type Cmp struct {
	Col string
	Op  CmpOp
	Val interface{}
	Sel float64
}

// Node is one logical plan operator. Range bounds (From/To) are
// parameters, not plan structure: they are excluded from the signature
// and re-bound on every execution.
type Node struct {
	Kind     Kind
	Children []*Node

	Table *catalog.Table // Scan
	From  []byte         // Scan lower bound (parameter)
	To    []byte         // Scan upper bound (parameter)

	Preds []Pred // Filter

	Cols []string // Project

	LeftCols  []string // Join equality columns, left input
	RightCols []string // Join equality columns, right input

	GroupBy []string   // Agg
	Aggs    []exec.Agg // Agg

	Specs []exec.SortSpec // Sort/Top

	N int64 // Limit/Top row bound
}

// Builder is the fluent query-builder. Each method returns a new
// builder wrapping the extended tree; builders are immutable and safe
// to share as query templates.
type Builder struct {
	n *Node
}

// Scan reads a whole table in PK order.
func Scan(t *catalog.Table) *Builder {
	return &Builder{n: &Node{Kind: KindScan, Table: t}}
}

// ScanRange reads a PK range [from, to) of a table. The bounds are
// parameters: plans differing only in bounds share a cache entry.
func ScanRange(t *catalog.Table, from, to []byte) *Builder {
	return &Builder{n: &Node{Kind: KindScan, Table: t, From: from, To: to}}
}

// Where filters rows by a named predicate over the listed columns: fn
// sees a tuple of exactly cols, in that order. The name identifies the
// predicate in the plan signature. A column the input does not have is
// an error at Lower.
func (b *Builder) Where(name string, cols []string, fn func(row.Tuple) bool) *Builder {
	return &Builder{n: &Node{Kind: KindFilter, Preds: []Pred{{Name: name, Cols: cols, Fn: fn}}, Children: []*Node{b.n}}}
}

// WhereCmp filters by the structured comparison col <op> val, with sel
// as the caller's selectivity estimate (0 = unknown). Unlike Where, the
// optimizer can see through the predicate — cost it, and push it to the
// donors holding the table's remote segment. The constant re-binds like
// a range bound; sel is part of the predicate's identity. The input
// must be a scan-rooted pipeline (the column is resolved eagerly).
func (b *Builder) WhereCmp(col string, op CmpOp, val interface{}, sel float64) *Builder {
	sch := outSchema(b.n)
	typ := sch.Columns[sch.MustOrdinal(col)].Type
	if v, isInt := val.(int); isInt && typ == row.Int64 {
		val = int64(v)
	}
	p := Pred{
		Name: fmt.Sprintf("%s%s?sel=%g", col, op, sel),
		Cols: []string{col},
		Fn:   cmpFn(typ, op, val),
		Cmp:  &Cmp{Col: col, Op: op, Val: val, Sel: sel},
	}
	return &Builder{n: &Node{Kind: KindFilter, Preds: []Pred{p}, Children: []*Node{b.n}}}
}

// outSchema derives the output schema of a scan-rooted pipeline; it
// panics on subtrees (joins, aggregates) whose schemas only the
// executor computes — WhereCmp belongs below those operators anyway.
func outSchema(n *Node) *row.Schema {
	switch n.Kind {
	case KindScan:
		return n.Table.Schema
	case KindProject:
		return outSchema(n.Children[0]).Project(n.Cols...)
	case KindFilter, KindLimit, KindSort, KindTop:
		return outSchema(n.Children[0])
	}
	panic("plan: WhereCmp needs a scan-rooted input")
}

// cmpFn compiles one structured comparison into a predicate over the
// one-column tuple it declares.
func cmpFn(typ row.Type, op CmpOp, val interface{}) func(row.Tuple) bool {
	cmp := func(t row.Tuple) int {
		switch typ {
		case row.Int64:
			want := val.(int64)
			v := t[0].(int64)
			switch {
			case v < want:
				return -1
			case v > want:
				return 1
			}
			return 0
		case row.Float64:
			want := val.(float64)
			v := t[0].(float64)
			switch {
			case v < want:
				return -1
			case v > want:
				return 1
			}
			return 0
		case row.String:
			return strings.Compare(t[0].(string), val.(string))
		default:
			return bytes.Compare(t[0].([]byte), val.([]byte))
		}
	}
	switch op {
	case CmpEQ:
		return func(t row.Tuple) bool { return cmp(t) == 0 }
	case CmpNE:
		return func(t row.Tuple) bool { return cmp(t) != 0 }
	case CmpLT:
		return func(t row.Tuple) bool { return cmp(t) < 0 }
	case CmpLE:
		return func(t row.Tuple) bool { return cmp(t) <= 0 }
	case CmpGT:
		return func(t row.Tuple) bool { return cmp(t) > 0 }
	default:
		return func(t row.Tuple) bool { return cmp(t) >= 0 }
	}
}

// Select projects the named columns.
func (b *Builder) Select(cols ...string) *Builder {
	return &Builder{n: &Node{Kind: KindProject, Cols: cols, Children: []*Node{b.n}}}
}

// Join equi-joins with right on same-named columns. The receiver is the
// left (build/outer) side; its column names win on output collisions.
func (b *Builder) Join(right *Builder, cols ...string) *Builder {
	return b.JoinOn(right, cols, cols)
}

// JoinOn equi-joins with right on leftCols = rightCols.
func (b *Builder) JoinOn(right *Builder, leftCols, rightCols []string) *Builder {
	return &Builder{n: &Node{
		Kind:      KindJoin,
		LeftCols:  leftCols,
		RightCols: rightCols,
		Children:  []*Node{b.n, right.n},
	}}
}

// GroupBy hash-aggregates: group columns then one output column per
// aggregate.
func (b *Builder) GroupBy(groupBy []string, aggs ...exec.Agg) *Builder {
	return &Builder{n: &Node{Kind: KindAgg, GroupBy: groupBy, Aggs: aggs, Children: []*Node{b.n}}}
}

// OrderBy sorts (externally, spilling past the grant).
func (b *Builder) OrderBy(specs ...exec.SortSpec) *Builder {
	return &Builder{n: &Node{Kind: KindSort, Specs: specs, Children: []*Node{b.n}}}
}

// Top keeps the first n rows of the given order.
func (b *Builder) Top(n int, specs ...exec.SortSpec) *Builder {
	return &Builder{n: &Node{Kind: KindTop, N: int64(n), Specs: specs, Children: []*Node{b.n}}}
}

// Limit passes at most n rows.
func (b *Builder) Limit(n int64) *Builder {
	return &Builder{n: &Node{Kind: KindLimit, N: n, Children: []*Node{b.n}}}
}

// Node exposes the underlying logical tree (for tests and tools).
func (b *Builder) Node() *Node { return b.n }

// normalize rewrites a tree into canonical form: chains of adjacent
// filters collapse into one filter with predicates sorted by name (the
// order predicates were written in does not change the result set, so
// it must not change the signature either). Returns fresh nodes; the
// builder's tree is never mutated.
func normalize(n *Node) *Node {
	out := *n
	out.Children = make([]*Node, len(n.Children))
	for i, ch := range n.Children {
		out.Children[i] = normalize(ch)
	}
	if out.Kind == KindFilter {
		preds := append([]Pred(nil), out.Preds...)
		child := out.Children[0]
		for child.Kind == KindFilter {
			preds = append(preds, child.Preds...)
			child = child.Children[0]
		}
		sortPreds(preds)
		out.Preds = preds
		out.Children = []*Node{child}
	}
	return &out
}

func sortPreds(preds []Pred) {
	for i := 1; i < len(preds); i++ {
		for j := i; j > 0 && preds[j].Name < preds[j-1].Name; j-- {
			preds[j], preds[j-1] = preds[j-1], preds[j]
		}
	}
}
