// Package exec implements the engine's Volcano-style query executor:
// scans, filters, projections, hash and index-nested-loop joins, external
// sort, top-N and hash aggregation. Operators run under a per-query
// memory grant (the admission-control behaviour behind the paper's
// Q10/Q18 anecdote) and spill to TempDB when they exceed it — which is
// exactly the I/O the paper's scenario (ii) moves to remote memory.
package exec

import (
	"errors"
	"fmt"
	"slices"
	"time"

	"remotedb/internal/cluster"
	"remotedb/internal/engine/btree"
	"remotedb/internal/engine/catalog"
	"remotedb/internal/engine/row"
	"remotedb/internal/engine/tempdb"
	"remotedb/internal/sim"
)

// CPUProfile holds the executor's per-row CPU costs. They are the knobs
// that put the CPU/I-O crossover where the paper reports it (Figure 11b:
// RangeScan on remote memory is CPU-bound; Figure 14c: Hash+Sort phase 1
// is CPU-bound at ~400 MB/s).
type CPUProfile struct {
	PerRow  time.Duration // decode + evaluate one row
	PerHash time.Duration // hash/probe one row
	PerSort time.Duration // comparison-sort share per row
	PerXchg time.Duration // move one row through an exchange merge
}

// DefaultCPUProfile matches the calibration in internal/exp.
func DefaultCPUProfile() CPUProfile {
	return CPUProfile{
		PerRow:  50 * time.Nanosecond,
		PerHash: 30 * time.Nanosecond,
		PerSort: 60 * time.Nanosecond,
		PerXchg: 20 * time.Nanosecond,
	}
}

// Ctx carries the per-query execution environment.
type Ctx struct {
	P      *sim.Proc
	Server *cluster.Server
	Temp   *tempdb.TempDB
	Grant  int64 // memory-grant bytes for spilling operators
	CPU    CPUProfile
	DOP    int // degree of intra-query parallelism (0/1 = serial)

	// Budget is the per-query deadline budget for remote-memory I/O:
	// Open stamps Now+Budget as the proc's deadline for the life of the
	// query, and every rmem transfer issued beneath it (buffer-pool
	// extension faults, pushdown reads) is abandoned with fault.ErrSlow
	// once that deadline passes — the access falls back to the local
	// tier instead of riding a slow donor. 0 = no budget.
	Budget time.Duration

	cpuDebt time.Duration

	RowsOut      int64
	SpilledRuns  int64
	SpilledParts int64
}

// chargeCPU accrues per-row CPU and pays it to the server's cores in
// batches, so the simulator is not invoked for every row.
func (c *Ctx) chargeCPU(d time.Duration) {
	c.cpuDebt += d
	if c.cpuDebt >= 200*time.Microsecond {
		c.payCPU()
	}
}

func (c *Ctx) payCPU() {
	d := c.cpuDebt
	c.cpuDebt = 0
	if c.DOP > 1 {
		c.Server.WorkParallel(c.P, d, c.DOP)
	} else {
		c.Server.Work(c.P, d)
	}
}

// FlushCPU pays any remaining accrued CPU; called by Run and Close paths.
func (c *Ctx) FlushCPU() {
	if c.cpuDebt > 0 {
		c.payCPU()
	}
}

// ChargeCPU accrues CPU from engine layers outside the operators (the
// planner's optimization time, catalog work) into the same batched debt.
func (c *Ctx) ChargeCPU(d time.Duration) { c.chargeCPU(d) }

// Child derives a context for a worker process spawned inside this
// query (an exchange producer): same server, TempDB, grant and CPU
// profile, but the worker's own proc and its own CPU-debt batch, so
// each worker's CPU lands on its own simulated core.
func (c *Ctx) Child(p *sim.Proc) *Ctx {
	// Workers inherit the query's absolute deadline (not a fresh
	// budget): a parallel scan's remote reads race the same clock as
	// the query that spawned them.
	if dl := c.P.Deadline(); dl > 0 {
		p.SetDeadline(dl)
	}
	return &Ctx{
		P:      p,
		Server: c.Server,
		Temp:   c.Temp,
		Grant:  c.Grant,
		CPU:    c.CPU,
		DOP:    1,
		Budget: c.Budget,
	}
}

// Op is a Volcano operator. A row Next returns is lent: it is valid
// until the next Next or Close on that operator, which may overwrite it.
// An operator that keeps a row past that keeps a shallow copy; boxed
// values are immutable, so the copy may share them.
type Op interface {
	Open(c *Ctx) error
	Next(c *Ctx) (row.Tuple, bool, error)
	Close(c *Ctx) error
	Schema() *row.Schema
}

// keeper copies lent rows into chunks it allocates, so keeping a row
// costs no allocation of its own. A kept row lives as long as its chunk.
type keeper struct{ buf []interface{} }

func (k *keeper) keep(t row.Tuple) row.Tuple {
	if cap(k.buf)-len(k.buf) < len(t) {
		k.buf = make([]interface{}, 0, max(1024, len(t)))
	}
	n := len(k.buf)
	k.buf = append(k.buf, t...)
	return row.Tuple(k.buf[n:len(k.buf):len(k.buf)])
}

// Run drains an operator tree, returning the row count (convenience for
// benchmarks and tests that don't need the rows).
func Run(c *Ctx, op Op) (int64, error) {
	r, err := Open(c, op)
	if err != nil {
		return 0, err
	}
	return r.Count()
}

// --- TableScan -----------------------------------------------------------

// projected is the schema a leaf with column list cols produces: the
// table's own when the list is nil, else the listed columns.
func projected(tbl *row.Schema, cols []string) *row.Schema {
	if cols == nil {
		return tbl
	}
	return tbl.Project(cols...)
}

// colOrds resolves a leaf's column list to the ordinals it decodes (nil
// for nil: every column). The list is in table-schema order, because
// the decoder walks a tuple image once.
func colOrds(tbl *row.Schema, cols []string) ([]int, error) {
	if cols == nil {
		return nil, nil
	}
	ords := make([]int, len(cols))
	for i, name := range cols {
		ords[i] = tbl.Ordinal(name)
		if ords[i] < 0 || (i > 0 && ords[i] <= ords[i-1]) {
			return nil, fmt.Errorf("exec: scan column %q is unknown or out of schema order", name)
		}
	}
	return ords, nil
}

// ScanPred is a predicate a TableScan evaluates on each row's image
// before it decodes the row: Fn is handed the table columns at Ords, in
// that order. A row it rejects is never materialised.
type ScanPred struct {
	Ords []int
	Fn   func(row.Tuple) bool
}

// boundPred is a ScanPred bound to one open scan. Its columns decode in
// schema order into vals; Fn reads them in its own order from args.
type boundPred struct {
	fn    func(row.Tuple) bool
	ords  []int     // Ords ascending, each once: the decode order
	vals  row.Tuple // parallel to ords
	args  row.Tuple // Fn's argument: args[k] = vals[perm[k]]
	perm  []int
	slots [][2]int // {vals index, row slot} of each value the row materialises too
}

// bind resolves p against a scan that materialises the columns at
// ords (nil = all ncols).
func (p ScanPred) bind(ords []int, ncols int) (boundPred, error) {
	b := boundPred{fn: p.Fn, ords: slices.Clone(p.Ords), args: make(row.Tuple, len(p.Ords)), perm: make([]int, len(p.Ords))}
	slices.Sort(b.ords)
	b.ords = slices.Compact(b.ords)
	if len(b.ords) > 0 && (b.ords[0] < 0 || b.ords[len(b.ords)-1] >= ncols) {
		return boundPred{}, fmt.Errorf("exec: scan predicate reads column ordinals %v of a %d-column table", p.Ords, ncols)
	}
	b.vals = make(row.Tuple, len(b.ords))
	for k, o := range p.Ords {
		b.perm[k], _ = slices.BinarySearch(b.ords, o)
	}
	for i, o := range b.ords {
		slot, found := o, true
		if ords != nil {
			slot, found = slices.BinarySearch(ords, o)
		}
		if found {
			b.slots = append(b.slots, [2]int{i, slot})
		}
	}
	return b, nil
}

// TableScan reads every row of a table in primary-key order, keeping
// those every predicate in Preds accepts.
type TableScan struct {
	Table *catalog.Table
	From  []byte     // optional PK lower bound
	To    []byte     // optional PK upper bound (exclusive)
	Cols  []string   // columns to materialise, in schema order (nil = all)
	Preds []ScanPred // evaluated on the image, before a row is decoded

	schema *row.Schema
	ords   []int
	preds  []boundPred
	it     *btree.Iterator
	row    row.Tuple // the row Next lends
}

// Schema returns the schema of the materialised columns.
func (s *TableScan) Schema() *row.Schema {
	if s.schema == nil {
		s.schema = projected(s.Table.Schema, s.Cols)
	}
	return s.schema
}

// bind resolves the column list and the predicates.
func (s *TableScan) bind() error {
	var err error
	if s.ords, err = colOrds(s.Table.Schema, s.Cols); err != nil {
		return err
	}
	s.preds = s.preds[:0]
	for _, p := range s.Preds {
		b, err := p.bind(s.ords, s.Table.Schema.Len())
		if err != nil {
			return err
		}
		s.preds = append(s.preds, b)
	}
	return nil
}

// Open binds the scan and positions it.
func (s *TableScan) Open(c *Ctx) error {
	if err := s.bind(); err != nil {
		return err
	}
	return s.seek(c)
}

// seek positions a bound scan at From.
func (s *TableScan) seek(c *Ctx) (err error) {
	if n := s.Schema().Len(); s.row == nil || len(s.row) != n {
		s.row = make(row.Tuple, n)
	}
	s.it, err = s.Table.Clustered.Scan(c.P, s.From)
	return err
}

// Next returns the next row the predicates accept. Every row scanned
// costs CPUProfile.PerRow, accepted or not.
func (s *TableScan) Next(c *Ctx) (row.Tuple, bool, error) {
	if s.it == nil {
		return nil, false, errors.New("exec: scan not open")
	}
	for {
		pair, ok, err := s.it.Next(c.P)
		if err != nil || !ok {
			return nil, false, err
		}
		if s.To != nil && string(pair.Key) >= string(s.To) {
			return nil, false, nil
		}
		c.chargeCPU(c.CPU.PerRow)
		pass, err := s.accept(pair.Val)
		if err != nil {
			return nil, false, err
		}
		if !pass {
			continue
		}
		// The predicates' values go into the row first, so the decode
		// keeps their boxes instead of boxing the same values again.
		for _, b := range s.preds {
			for _, sl := range b.slots {
				s.row[sl[1]] = b.vals[sl[0]]
			}
		}
		if _, err := row.DecodeCols(s.row, s.Table.Schema, pair.Val, s.ords); err != nil {
			return nil, false, err
		}
		return s.row, true, nil
	}
}

// accept decodes each predicate's columns from a row image and evaluates
// it, stopping at the first that rejects the row.
func (s *TableScan) accept(img []byte) (bool, error) {
	for i := range s.preds {
		b := &s.preds[i]
		if _, err := row.DecodeCols(b.vals, s.Table.Schema, img, b.ords); err != nil {
			return false, err
		}
		for k, j := range b.perm {
			b.args[k] = b.vals[j]
		}
		if !b.fn(b.args) {
			return false, nil
		}
	}
	return true, nil
}

// Close hands the scan's iterator back to its tree.
func (s *TableScan) Close(c *Ctx) error {
	if s.it != nil {
		s.it.Close()
		s.it = nil
	}
	return nil
}

// --- Filter ---------------------------------------------------------------

// Filter passes rows satisfying Pred.
type Filter struct {
	In   Op
	Pred func(row.Tuple) bool
}

// Schema passes the input schema through.
func (f *Filter) Schema() *row.Schema { return f.In.Schema() }

// Open opens the input.
func (f *Filter) Open(c *Ctx) error { return f.In.Open(c) }

// Next returns the next passing row.
func (f *Filter) Next(c *Ctx) (row.Tuple, bool, error) {
	for {
		t, ok, err := f.In.Next(c)
		if err != nil || !ok {
			return nil, false, err
		}
		if f.Pred(t) {
			return t, true, nil
		}
	}
}

// Close closes the input.
func (f *Filter) Close(c *Ctx) error { return f.In.Close(c) }

// --- Project ----------------------------------------------------------------

// Project keeps the named columns.
type Project struct {
	In   Op
	Cols []string

	schema *row.Schema
	ords   []int
	row    row.Tuple // the row Next lends
}

// Schema returns the projected schema.
func (pr *Project) Schema() *row.Schema {
	if pr.schema == nil {
		pr.schema = pr.In.Schema().Project(pr.Cols...)
	}
	return pr.schema
}

// Open opens the input and resolves ordinals.
func (pr *Project) Open(c *Ctx) error {
	if err := pr.In.Open(c); err != nil {
		return err
	}
	in := pr.In.Schema()
	pr.ords = pr.ords[:0]
	for _, col := range pr.Cols {
		pr.ords = append(pr.ords, in.MustOrdinal(col))
	}
	return nil
}

// Next returns the projected row.
func (pr *Project) Next(c *Ctx) (row.Tuple, bool, error) {
	t, ok, err := pr.In.Next(c)
	if err != nil || !ok {
		return nil, false, err
	}
	pr.row = pr.row[:0]
	for _, o := range pr.ords {
		pr.row = append(pr.row, t[o])
	}
	return pr.row, true, nil
}

// Close closes the input.
func (pr *Project) Close(c *Ctx) error { return pr.In.Close(c) }

// --- Limit -------------------------------------------------------------------

// Limit passes at most N rows.
type Limit struct {
	In Op
	N  int64

	seen int64
}

// Schema passes through.
func (l *Limit) Schema() *row.Schema { return l.In.Schema() }

// Open opens the input.
func (l *Limit) Open(c *Ctx) error {
	l.seen = 0
	return l.In.Open(c)
}

// Next returns the next row while under the limit.
func (l *Limit) Next(c *Ctx) (row.Tuple, bool, error) {
	if l.seen >= l.N {
		return nil, false, nil
	}
	t, ok, err := l.In.Next(c)
	if ok {
		l.seen++
	}
	return t, ok, err
}

// Close closes the input.
func (l *Limit) Close(c *Ctx) error { return l.In.Close(c) }

// --- Values -------------------------------------------------------------------

// Values replays a materialized row set (used by the semantic cache and
// by tests).
type Values struct {
	Rows []row.Tuple
	Sch  *row.Schema

	pos int
}

// Schema returns the declared schema.
func (v *Values) Schema() *row.Schema { return v.Sch }

// Open rewinds.
func (v *Values) Open(c *Ctx) error {
	v.pos = 0
	return nil
}

// Next returns the next stored row.
func (v *Values) Next(c *Ctx) (row.Tuple, bool, error) {
	if v.pos >= len(v.Rows) {
		return nil, false, nil
	}
	t := v.Rows[v.pos]
	v.pos++
	c.chargeCPU(c.CPU.PerRow)
	return t, true, nil
}

// Close is a no-op.
func (v *Values) Close(c *Ctx) error { return nil }
