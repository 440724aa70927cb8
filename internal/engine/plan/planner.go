package plan

import (
	"fmt"
	"strings"
	"time"

	"remotedb/internal/engine/catalog"
	"remotedb/internal/engine/exec"
	"remotedb/internal/engine/opt"
	"remotedb/internal/engine/row"
	"remotedb/internal/rmem"
)

// pageRows approximates clustered rows per 8K page for cost estimation
// (the executor does not track per-table row widths).
const pageRows = 50

// decisions holds everything optimization chose for one normalized
// plan shape, positionally: joins[i] belongs to the i-th join node in
// preorder, leaves[i] to the i-th table or index scan. Column sets are
// kept by name, resolved and ordered, so a cache hit does no set
// arithmetic. The cache stores decisions — never operator instances
// (operators carry run state) and never plan-node closures (a cached
// closure would pin whatever out-of-band state the first query
// captured).
type decisions struct {
	joins  []joinPlan
	leaves []leafPlan
}

// joinPlan is one join's strategy and the columns it emits (nil = every
// column of both inputs).
type joinPlan struct {
	strat opt.JoinPlan
	out   []exec.JoinCol
}

// leafPlan is one scan's DOP, placement (PlaceLocal = ordinary
// lowering) and the columns it materialises, in table-schema order
// (nil = all of them).
type leafPlan struct {
	dop       int
	placement opt.Placement
	cols      []string
}

// Planner normalizes logical plans, caches optimization decisions
// keyed on the normalized signature, and lowers plans to executor
// trees using the tier-aware cost model.
type Planner struct {
	Cost *opt.Model
	// DataTier is where base-table and index pages live; the default
	// assumes the buffer-pool extension serves them from remote memory.
	DataTier opt.Tier
	// PlanCPUPerNode is the optimization CPU charged per plan node on a
	// cache miss; a hit charges only HitCPU. The ratio is the plan
	// cache's entire payoff on small queries.
	PlanCPUPerNode time.Duration
	HitCPU         time.Duration

	// Pushdown lets the optimizer place pushable scans at the donors
	// (or fetch their segment whole) instead of always lowering the
	// buffered B-tree scan. Off by default: a placement is only as good
	// as the pushable segments backing it.
	Pushdown bool

	// Hits and Misses count cache outcomes.
	Hits, Misses int64

	maxEntries int
	cache      map[string]*decisions
	fifo       []string
}

// NewPlanner builds a planner with a plan cache of maxEntries
// (0 = default 128, negative = caching disabled).
func NewPlanner(cost *opt.Model, maxEntries int) *Planner {
	if maxEntries == 0 {
		maxEntries = 128
	}
	if cost == nil {
		cost = opt.NewModel()
	}
	return &Planner{
		Cost:           cost,
		DataTier:       opt.TierRemote,
		PlanCPUPerNode: 250 * time.Microsecond,
		HitCPU:         15 * time.Microsecond,
		maxEntries:     maxEntries,
		cache:          make(map[string]*decisions),
	}
}

// CacheLen reports the number of cached plans.
func (pl *Planner) CacheLen() int { return len(pl.cache) }

// Stream plans, optimizes (or reuses cached decisions) and opens the
// query, returning the streaming result iterator.
func (pl *Planner) Stream(c *exec.Ctx, b *Builder) (*exec.Rows, error) {
	op, err := pl.Lower(c, b)
	if err != nil {
		return nil, err
	}
	return exec.Open(c, op)
}

// Run is Stream followed by draining the iterator; it returns the row
// count.
func (pl *Planner) Run(c *exec.Ctx, b *Builder) (int64, error) {
	r, err := pl.Stream(c, b)
	if err != nil {
		return 0, err
	}
	return r.Count()
}

// Lower produces the executor tree for a builder without opening it.
// Most callers want Stream; Lower exists for consumers that manage the
// operator themselves (the semantic cache, tests).
func (pl *Planner) Lower(c *exec.Ctx, b *Builder) (exec.Op, error) {
	n := normalize(b.Node())
	var d *decisions
	if pl.maxEntries > 0 {
		sig := Signature(n, c.DOP)
		if hit, ok := pl.cache[sig]; ok {
			pl.Hits++
			d = hit
			c.ChargeCPU(pl.HitCPU)
		} else {
			pl.Misses++
			d = pl.optimize(c, n)
			pl.cache[sig] = d
			pl.fifo = append(pl.fifo, sig)
			if len(pl.fifo) > pl.maxEntries {
				delete(pl.cache, pl.fifo[0])
				pl.fifo = pl.fifo[1:]
			}
		}
	} else {
		pl.Misses++
		d = pl.optimize(c, n)
	}
	inst := &instantiator{pl: pl, d: d}
	op, err := inst.lower(c, n)
	if err != nil {
		return nil, err
	}
	return op, nil
}

// Signature renders the normalized tree as a canonical s-expression.
// Range bounds (From/To) are deliberately absent — they are the plan's
// parameters — while predicate names, projection lists, join columns,
// aggregates and limits are all structure. DOP is part of the key
// because it changes the chosen plan.
func Signature(n *Node, dop int) string {
	var sb strings.Builder
	sig(n, &sb)
	fmt.Fprintf(&sb, "@dop%d", dop)
	return sb.String()
}

func sig(n *Node, sb *strings.Builder) {
	switch n.Kind {
	case KindScan:
		fmt.Fprintf(sb, "(scan %s)", n.Table.Name)
	case KindFilter:
		sb.WriteString("(filter")
		for _, p := range n.Preds {
			sb.WriteString(" " + p.Name + "[" + strings.Join(p.Cols, ",") + "]")
		}
		sb.WriteByte(' ')
		sig(n.Children[0], sb)
		sb.WriteByte(')')
	case KindProject:
		fmt.Fprintf(sb, "(proj %s ", strings.Join(n.Cols, ","))
		sig(n.Children[0], sb)
		sb.WriteByte(')')
	case KindLimit:
		fmt.Fprintf(sb, "(limit %d ", n.N)
		sig(n.Children[0], sb)
		sb.WriteByte(')')
	case KindJoin:
		fmt.Fprintf(sb, "(join %s=%s ", strings.Join(n.LeftCols, ","), strings.Join(n.RightCols, ","))
		sig(n.Children[0], sb)
		sb.WriteByte(' ')
		sig(n.Children[1], sb)
		sb.WriteByte(')')
	case KindAgg:
		fmt.Fprintf(sb, "(agg %s", strings.Join(n.GroupBy, ","))
		for _, a := range n.Aggs {
			fmt.Fprintf(sb, " %d:%s:%s", a.Fn, a.Col, a.As)
		}
		sb.WriteByte(' ')
		sig(n.Children[0], sb)
		sb.WriteByte(')')
	case KindSort:
		fmt.Fprintf(sb, "(sort %s ", specsSig(n.Specs))
		sig(n.Children[0], sb)
		sb.WriteByte(')')
	case KindTop:
		fmt.Fprintf(sb, "(top %d %s ", n.N, specsSig(n.Specs))
		sig(n.Children[0], sb)
		sb.WriteByte(')')
	}
}

func specsSig(specs []exec.SortSpec) string {
	parts := make([]string, len(specs))
	for i, s := range specs {
		dir := "asc"
		if s.Desc {
			dir = "desc"
		}
		parts[i] = s.Col + ":" + dir
	}
	return strings.Join(parts, ",")
}

// --- optimization ---------------------------------------------------------

// optimize walks the tree in preorder choosing a strategy per join, a
// DOP and a placement per scan, and the columns each of them carries,
// and charges the planner's optimization CPU.
func (pl *Planner) optimize(c *exec.Ctx, n *Node) *decisions {
	d := &decisions{}
	nodes := pl.optNode(c, n, d, nil, nil)
	c.ChargeCPU(time.Duration(nodes) * pl.PlanCPUPerNode)
	return d
}

// optNode records decisions in preorder. preds carries the predicates
// of the filter directly above a node (normalize collapses filter
// chains, so one hop sees them all) — the context a scan's placement
// decision is made in — and need the columns the node's parent consumes
// (nil = all: the root's result is never narrowed).
func (pl *Planner) optNode(c *exec.Ctx, n *Node, d *decisions, preds []Pred, need colSet) int {
	nodes := 1
	kids, out := childNeeds(n, need)
	switch n.Kind {
	case KindJoin:
		d.joins = append(d.joins, joinPlan{strat: pl.chooseJoin(c, n), out: out})
	case KindScan:
		dop := pl.chooseDOP(c, n)
		d.leaves = append(d.leaves, leafPlan{dop: dop, placement: pl.choosePlacement(n, preds, dop), cols: leafCols(n.Table.Schema, need)})
	}
	var down []Pred
	if n.Kind == KindFilter {
		down = n.Preds
	}
	for i, ch := range n.Children {
		nodes += pl.optNode(c, ch, d, down, kids[i])
	}
	return nodes
}

// choosePlacement costs donor-side pushdown for one scan under the
// given filter predicates. PlaceLocal means "lower the ordinary scan":
// it is the answer whenever pushdown is off, the table has no pushable
// segment, the scan is range-bounded (segment byte offsets of a PK
// bound are unknown), or no predicate leaf is pushable.
func (pl *Planner) choosePlacement(n *Node, preds []Pred, dop int) opt.Placement {
	seg := n.Table.Push
	if !pl.Pushdown || seg == nil || seg.Rows == 0 || n.From != nil || n.To != nil {
		return opt.PlaceLocal
	}
	leaves, sel := pushablePreds(n.Table.Schema, preds)
	if len(leaves) == 0 {
		return opt.PlaceLocal
	}
	choice, _, _, _ := pl.Cost.ChoosePlacement(opt.PushScanInputs{
		Rows:        seg.Rows,
		Bytes:       seg.Bytes,
		OutBytes:    seg.Bytes / seg.Rows,
		Selectivity: sel,
		Leaves:      len(leaves),
		LocalTier:   pl.DataTier,
		DOP:         dop,
	})
	return choice
}

// pushablePreds converts the structured leaves among preds into donor
// predicate leaves, multiplying their selectivity hints (an unhinted
// leaf contributes the estRows default of 1/3).
func pushablePreds(sch *row.Schema, preds []Pred) ([]rmem.PushLeaf, float64) {
	sel := 1.0
	var leaves []rmem.PushLeaf
	for _, pr := range preds {
		leaf, ok := pushLeaf(sch, pr.Cmp)
		if !ok {
			continue
		}
		leaves = append(leaves, leaf)
		if pr.Cmp.Sel > 0 {
			sel *= pr.Cmp.Sel
		} else {
			sel /= 3
		}
	}
	return leaves, sel
}

// pushLeaf lowers one structured comparison to the donor evaluator's
// leaf form, or reports it unpushable.
func pushLeaf(sch *row.Schema, cm *Cmp) (rmem.PushLeaf, bool) {
	if cm == nil {
		return rmem.PushLeaf{}, false
	}
	ord := sch.Ordinal(cm.Col)
	if ord < 0 {
		return rmem.PushLeaf{}, false
	}
	leaf := rmem.PushLeaf{Col: ord, Op: pushOp(cm.Op)}
	switch sch.Columns[ord].Type {
	case row.Int64:
		v, ok := cm.Val.(int64)
		if !ok {
			return rmem.PushLeaf{}, false
		}
		leaf.Int = v
	case row.Float64:
		v, ok := cm.Val.(float64)
		if !ok {
			return rmem.PushLeaf{}, false
		}
		leaf.Float = v
	case row.String:
		v, ok := cm.Val.(string)
		if !ok {
			return rmem.PushLeaf{}, false
		}
		leaf.Bytes = []byte(v)
	default:
		v, ok := cm.Val.([]byte)
		if !ok {
			return rmem.PushLeaf{}, false
		}
		leaf.Bytes = v
	}
	return leaf, true
}

func pushOp(op CmpOp) rmem.PushOp {
	switch op {
	case CmpEQ:
		return rmem.PushEQ
	case CmpNE:
		return rmem.PushNE
	case CmpLT:
		return rmem.PushLT
	case CmpLE:
		return rmem.PushLE
	case CmpGT:
		return rmem.PushGT
	default:
		return rmem.PushGE
	}
}

// pushCols renders a table schema as the donor evaluator's field kinds.
func pushCols(sch *row.Schema) []rmem.FieldKind {
	out := make([]rmem.FieldKind, sch.Len())
	for i, c := range sch.Columns {
		switch c.Type {
		case row.Int64:
			out[i] = rmem.FieldInt64
		case row.Float64:
			out[i] = rmem.FieldFloat64
		default:
			out[i] = rmem.FieldBytes
		}
	}
	return out
}

// chooseDOP costs the scan at every DOP up to the context's budget.
func (pl *Planner) chooseDOP(c *exec.Ctx, n *Node) int {
	if c.DOP <= 1 {
		return 1
	}
	rows := n.Table.Clustered.Entries
	if n.From != nil || n.To != nil {
		rows /= 4 // default range selectivity
	}
	in := opt.ScanInputs{Rows: rows, Pages: rows/pageRows + 1, Tier: pl.DataTier}
	return pl.Cost.ChooseScanDOP(in, c.DOP)
}

// chooseJoin lets the tier-aware model pick INLJ vs hash join. INLJ is
// a candidate only when the right input is a bare scan whose table has
// a secondary index exactly on the join columns, and the two sides
// share no column names (the operators disambiguate duplicates
// differently, so a swap would change the output schema).
func (pl *Planner) chooseJoin(c *exec.Ctx, n *Node) opt.JoinPlan {
	right := n.Children[1]
	ix := inljIndex(right, n.RightCols)
	if ix == nil || sharesNames(n.Children[0], right) {
		return opt.PlanHashJoin
	}
	inner := right.Table
	innerRows := inner.Clustered.Entries
	matches := int64(1)
	outer := estRows(n.Children[0])
	in := opt.JoinInputs{
		OuterRows:      outer,
		InnerRows:      innerRows,
		InnerPages:     innerRows/pageRows + 1,
		IndexHeight:    ix.Tree.Height(),
		MatchesPerSeek: matches,
		IndexTier:      pl.DataTier,
		TableTier:      pl.DataTier,
	}
	plan, _, _ := pl.Cost.ChooseJoin(in)
	return plan
}

// inljIndex returns the secondary index exactly matching cols on a bare
// scan node, or nil.
func inljIndex(n *Node, cols []string) *catalog.Index {
	if n.Kind != KindScan || n.From != nil || n.To != nil {
		return nil
	}
	for _, ix := range n.Table.Secondary {
		if len(ix.Cols) != len(cols) {
			continue
		}
		match := true
		for i := range cols {
			if ix.Cols[i] != cols[i] {
				match = false
				break
			}
		}
		if match {
			return ix
		}
	}
	return nil
}

// sharesNames reports whether the two subtrees' output schemas overlap
// in column names.
func sharesNames(l, r *Node) bool {
	ln := setOf(outCols(l)...)
	for _, name := range outCols(r) {
		if ln[name] {
			return true
		}
	}
	return false
}

// estRows is the planner's cardinality guess, deliberately simple:
// filters keep a third, aggregates a tenth, equi-joins track the larger
// input (foreign-key assumption).
func estRows(n *Node) int64 {
	est := int64(1)
	switch n.Kind {
	case KindScan:
		est = n.Table.Clustered.Entries
		if n.From != nil || n.To != nil {
			est /= 4
		}
	case KindFilter:
		est = estRows(n.Children[0])
		for range n.Preds {
			est /= 3
		}
	case KindJoin:
		l, r := estRows(n.Children[0]), estRows(n.Children[1])
		est = l
		if r > est {
			est = r
		}
	case KindAgg:
		est = estRows(n.Children[0]) / 10
	case KindLimit, KindTop:
		est = estRows(n.Children[0])
		if n.N < est {
			est = n.N
		}
	default:
		est = estRows(n.Children[0])
	}
	if est < 1 {
		est = 1
	}
	return est
}

// --- lowering -------------------------------------------------------------

// instantiator builds a fresh executor tree from a normalized plan,
// consuming the positional decisions in preorder.
type instantiator struct {
	pl      *Planner
	d       *decisions
	joinIdx int
	leafIdx int
}

func (in *instantiator) nextJoin() joinPlan {
	j := in.d.joins[in.joinIdx]
	in.joinIdx++
	return j
}

func (in *instantiator) nextLeaf() leafPlan {
	l := in.d.leaves[in.leafIdx]
	in.leafIdx++
	return l
}

// scanOp is the ordinary (possibly parallel) B-tree scan of a leaf,
// evaluating preds itself: in every partition when it is parallel.
func scanOp(scan *Node, leaf leafPlan, preds []exec.ScanPred) exec.Op {
	if leaf.dop > 1 {
		return &exec.ParallelScan{Table: scan.Table, From: scan.From, To: scan.To, DOP: leaf.dop, Cols: leaf.cols, Preds: preds}
	}
	return &exec.TableScan{Table: scan.Table, From: scan.From, To: scan.To, Cols: leaf.cols, Preds: preds}
}

func (in *instantiator) lower(c *exec.Ctx, n *Node) (exec.Op, error) {
	switch n.Kind {
	case KindScan:
		return scanOp(n, in.nextLeaf(), nil), nil
	case KindJoin:
		return in.lowerJoin(c, n)
	case KindAgg:
		return in.lowerAgg(c, n)
	case KindFilter:
		if ch := n.Children[0]; ch.Kind == KindScan {
			return in.lowerFilteredScan(n, ch)
		}
	}
	if len(n.Children) != 1 {
		return nil, fmt.Errorf("plan: unknown node kind %d", n.Kind)
	}
	ch, err := in.lower(c, n.Children[0])
	if err != nil {
		return nil, err
	}
	return stageOp(n, ch)
}

// stageOp lowers a one-input node over its already-lowered input.
func stageOp(n *Node, in exec.Op) (exec.Op, error) {
	switch n.Kind {
	case KindFilter:
		return filterOp(n.Preds, in)
	case KindProject:
		return &exec.Project{In: in, Cols: n.Cols}, nil
	case KindLimit:
		return &exec.Limit{In: in, N: n.N}, nil
	case KindSort:
		return &exec.Sort{In: in, Specs: n.Specs}, nil
	case KindTop:
		return &exec.TopN{In: in, Specs: n.Specs, N: int(n.N)}, nil
	}
	return nil, fmt.Errorf("plan: unknown node kind %d", n.Kind)
}

func (in *instantiator) lowerJoin(c *exec.Ctx, n *Node) (exec.Op, error) {
	jp := in.nextJoin()
	left, err := in.lower(c, n.Children[0])
	if err != nil {
		return nil, err
	}
	if jp.strat == opt.PlanINLJ {
		if ix := inljIndex(n.Children[1], n.RightCols); ix != nil {
			// The inner side is not lowered, but its leaf decision is
			// consumed (later scans stay aligned) and names what to fetch.
			return &exec.IndexNestedLoopJoin{Outer: left, OuterCols: n.LeftCols, Inner: ix, Fetch: true, InnerCols: in.nextLeaf().cols}, nil
		}
	}
	right, err := in.lower(c, n.Children[1])
	if err != nil {
		return nil, err
	}
	return &exec.HashJoin{Build: left, Probe: right, BuildCols: n.LeftCols, ProbeCols: n.RightCols, Out: jp.out, RemoteProbe: in.pl.Pushdown}, nil
}

// lowerFilteredScan lowers filter-over-scan honoring the cached
// placement: PlaceLocal gives the ordinary B-tree scan evaluating the
// predicates itself, in every partition when it is parallel, while the
// remote placements absorb the pushable leaves into a PushScan —
// donor-evaluated or fetch-all per the decision — leaving opaque
// predicates behind as a residual Filter.
func (in *instantiator) lowerFilteredScan(f, scan *Node) (exec.Op, error) {
	leaf := in.nextLeaf()
	if leaf.placement != opt.PlaceLocal && scan.Table.Push != nil {
		return pushScanOp(f, scan, leaf)
	}
	preds, err := bindPreds(f.Preds, scan.Table.Schema)
	if err != nil {
		return nil, err
	}
	return scanOp(scan, leaf, preds), nil
}

// pushScanOp builds the PushScan (plus residual Filter) for a
// filter-over-scan pair under a remote placement.
func pushScanOp(f, scan *Node, leaf leafPlan) (exec.Op, error) {
	sch := scan.Table.Schema
	leaves, _ := pushablePreds(sch, f.Preds)
	// An empty projection stays nil: a zero-length record is the push
	// log's padding marker, so a row of no columns cannot be returned.
	var proj []int
	for _, col := range leaf.cols {
		proj = append(proj, sch.MustOrdinal(col))
	}
	var op exec.Op = &exec.PushScan{
		Table:    scan.Table,
		Query:    &rmem.PushQuery{Cols: pushCols(sch), Preds: leaves, Proj: proj},
		FetchAll: leaf.placement == opt.PlaceFetchAll,
		DOP:      leaf.dop,
	}
	var residual []Pred
	for _, pr := range f.Preds {
		if _, ok := pushLeaf(sch, pr.Cmp); !ok {
			residual = append(residual, pr)
		}
	}
	if len(residual) > 0 {
		return filterOp(residual, op)
	}
	return op, nil
}

// lowerAgg emits a ParallelAgg when the aggregate sits on a
// scan-rooted pipeline (filters/projections only) whose scan was given
// DOP > 1: each partition runs the whole pipeline and aggregates
// locally, so only tiny partial group tables cross the merge. A scan
// the optimizer placed remotely instead aggregates over a PushScan
// (which parallelizes internally by segment partition).
func (in *instantiator) lowerAgg(c *exec.Ctx, n *Node) (exec.Op, error) {
	chain, scan := pipelineToScan(n.Children[0])
	if scan == nil {
		ch, err := in.lower(c, n.Children[0])
		if err != nil {
			return nil, err
		}
		return &exec.HashAgg{In: ch, GroupBy: n.GroupBy, Aggs: n.Aggs}, nil
	}
	leaf := in.nextLeaf()
	// pipeline stacks the chain's stages, bottom-up, over a lowered scan.
	pipeline := func(op exec.Op, chain []*Node) (exec.Op, error) {
		var err error
		for j := len(chain) - 1; j >= 0 && err == nil; j-- {
			op, err = stageOp(chain[j], op)
		}
		return op, err
	}
	if leaf.placement != opt.PlaceLocal && scan.Table.Push != nil &&
		len(chain) > 0 && chain[len(chain)-1].Kind == KindFilter {
		op, err := pushScanOp(chain[len(chain)-1], scan, leaf)
		if err == nil {
			op, err = pipeline(op, chain[:len(chain)-1])
		}
		if err != nil {
			return nil, err
		}
		return &exec.HashAgg{In: op, GroupBy: n.GroupBy, Aggs: n.Aggs}, nil
	}
	// A filter directly on the scan runs inside it, in every partition.
	var preds []exec.ScanPred
	if k := len(chain) - 1; k >= 0 && chain[k].Kind == KindFilter {
		var err error
		if preds, err = bindPreds(chain[k].Preds, scan.Table.Schema); err != nil {
			return nil, err
		}
		chain = chain[:k]
	}
	if leaf.dop > 1 {
		ranges, err := exec.PartitionRanges(c.P, scan.Table, scan.From, scan.To, leaf.dop)
		if err != nil {
			return nil, err
		}
		if len(ranges) > 1 {
			parts := make([]exec.Op, len(ranges))
			for i, rg := range ranges {
				parts[i], err = pipeline(&exec.TableScan{Table: scan.Table, From: rg[0], To: rg[1], Cols: leaf.cols, Preds: preds}, chain)
				if err != nil {
					return nil, err
				}
			}
			return &exec.ParallelAgg{Parts: parts, GroupBy: n.GroupBy, Aggs: n.Aggs}, nil
		}
	}
	op, err := pipeline(&exec.TableScan{Table: scan.Table, From: scan.From, To: scan.To, Cols: leaf.cols, Preds: preds}, chain)
	if err != nil {
		return nil, err
	}
	return &exec.HashAgg{In: op, GroupBy: n.GroupBy, Aggs: n.Aggs}, nil
}

// pipelineToScan returns the Filter/Project chain (top-down) above a
// bare scan, or a nil scan when the subtree is anything else.
func pipelineToScan(n *Node) ([]*Node, *Node) {
	var chain []*Node
	for {
		switch n.Kind {
		case KindScan:
			return chain, n
		case KindFilter, KindProject:
			chain = append(chain, n)
			n = n.Children[0]
		default:
			return nil, nil
		}
	}
}

// bindPreds resolves each predicate's declared columns, in its order,
// in sch: the schema of the input a Filter reads, or the table a scan
// evaluates the predicates on. A declared column sch lacks is an error
// naming the predicate and the column.
func bindPreds(preds []Pred, sch *row.Schema) ([]exec.ScanPred, error) {
	out := make([]exec.ScanPred, len(preds))
	for i, p := range preds {
		out[i] = exec.ScanPred{Ords: make([]int, len(p.Cols)), Fn: p.Fn}
		for k, col := range p.Cols {
			if out[i].Ords[k] = sch.Ordinal(col); out[i].Ords[k] < 0 {
				return nil, fmt.Errorf("plan: predicate %q reads column %q, which its input does not have", p.Name, col)
			}
		}
	}
	return out, nil
}

// filterOp binds the predicates to the schema their input actually
// produces: per row it gathers each predicate's declared columns into
// that predicate's argument tuple, so fn sees exactly what it declared
// wherever pruning left those columns.
func filterOp(preds []Pred, in exec.Op) (exec.Op, error) {
	bs, err := bindPreds(preds, in.Schema())
	if err != nil {
		return nil, err
	}
	args := make([]row.Tuple, len(bs))
	for i, b := range bs {
		args[i] = make(row.Tuple, len(b.Ords))
	}
	return &exec.Filter{In: in, Pred: func(t row.Tuple) bool {
		for i, b := range bs {
			for k, o := range b.Ords {
				args[i][k] = t[o]
			}
			if !b.Fn(args[i]) {
				return false
			}
		}
		return true
	}}, nil
}
