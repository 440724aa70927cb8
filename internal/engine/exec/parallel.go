package exec

import (
	"cmp"
	"errors"
	"fmt"
	"sync"

	"remotedb/internal/engine/catalog"
	"remotedb/internal/engine/row"
	"remotedb/internal/sim"
)

// PartitionRanges splits the PK range [from, to) of a table into up to
// n consecutive sub-ranges at the clustered B-tree's separators
// (btree.SplitPoints), so parallel workers scan disjoint key ranges.
// Fewer than n ranges come back when the tree is too small to split that
// finely, or when [from, to) covers only part of the key space.
func PartitionRanges(p *sim.Proc, t *catalog.Table, from, to []byte, n int) ([][2][]byte, error) {
	seps, err := t.Clustered.SplitPoints(p, n)
	if err != nil {
		return nil, err
	}
	ranges := make([][2][]byte, 0, len(seps)+1)
	lo := from
	for _, s := range seps {
		if string(s) <= string(lo) {
			continue
		}
		if to != nil && string(s) >= string(to) {
			break
		}
		ranges = append(ranges, [2][]byte{lo, s})
		lo = s
	}
	ranges = append(ranges, [2][]byte{lo, to})
	return ranges, nil
}

// An Exchange worker's queue holds queueBatches batches of batchRows
// rows; a ParallelScan sizes its morsels to fit in it.
const queueBatches, batchRows = 4, 128

// xchgBatch is one unit handed from a producer to the consumer: copies
// of the rows its producer was lent for part part, laid out in vals. The
// consumer lends them in turn and hands the batch back to its worker's
// spare list; Close hands every batch to xchgBatches.
type xchgBatch struct {
	part int
	rows []row.Tuple
	vals []interface{}
}

// xchgBatches recycles batches across exchanges, and so across queries
// and kernels (a sync.Pool is safe for concurrent use).
var xchgBatches = sync.Pool{New: func() any { return new(xchgBatch) }}

// recycle clears b to its full capacity, so a pooled batch keeps no
// row's values alive, and pools it.
func (b *xchgBatch) recycle() {
	clear(b.rows[:cap(b.rows)])
	clear(b.vals[:cap(b.vals)])
	b.rows, b.vals = b.rows[:0], b.vals[:0]
	xchgBatches.Put(b)
}

func (b *xchgBatch) add(t row.Tuple) {
	n := len(b.vals)
	b.vals = append(b.vals, t...)
	b.rows = append(b.rows, b.vals[n:len(b.vals):len(b.vals)])
}

// xchgWorker is one producer process's state, shared (in simulated time,
// one runnable process at a time) with the consumer.
type xchgWorker struct {
	child *Ctx
	queue []*xchgBatch // filled batches, in part order
	spare []*xchgBatch // batches the consumer has drained, for produce to refill
	next  int          // the part being produced: every earlier part of this worker is queued
	err   error
	space *sim.Cond // the worker waits here when its queue is full
}

// Exchange runs its parts on Workers producer processes, worker w taking
// parts w, w+Workers, … in turn, and merges them in part order, so over
// consecutive PK ranges it keeps PK order while the workers' I/O and CPU
// overlap. Each worker's queue is bounded: a worker that runs ahead of
// the consumer parks until space frees, so only a part that fits in its
// queue is produced while the consumer drains an earlier one.
//
// Each row moved through the merge charges CPUProfile.PerXchg on the
// consumer's context; producers charge their own scan CPU, predicates
// included, on their own worker processes (cores).
type Exchange struct {
	Parts []Op
	// Workers is the number of producer processes (default: one per part).
	Workers int

	workers []*xchgWorker
	cur     int        // the part being merged
	batch   *xchgBatch // the batch Next lends from
	pos     int
	ready   *sim.Cond // consumer waits here for data
	wg      *sim.WaitGroup
	closed  bool
	open    bool
}

// Schema returns the (shared) schema of the partition streams.
func (x *Exchange) Schema() *row.Schema { return x.Parts[0].Schema() }

// Open spawns the producer processes.
func (x *Exchange) Open(c *Ctx) error {
	if len(x.Parts) == 0 {
		return errors.New("exec: exchange with no inputs")
	}
	k := c.Server.K
	x.ready = sim.NewCond(k)
	x.wg = sim.NewWaitGroup(k)
	x.cur, x.batch, x.pos = 0, nil, 0
	x.closed = false
	x.open = true
	x.workers = make([]*xchgWorker, cmp.Or(x.Workers, len(x.Parts)))
	for w := range x.workers {
		st := &xchgWorker{next: w, space: sim.NewCond(k)}
		x.workers[w] = st
		x.wg.Add(1)
		k.Go(fmt.Sprintf("xchg-%d", w), func(wp *sim.Proc) {
			defer x.wg.Done()
			st.child = c.Child(wp)
			x.produce(st)
			x.ready.Broadcast()
		})
	}
	return nil
}

// produce runs one worker's parts in turn, to completion or until the
// exchange is closed under it or a part fails.
func (x *Exchange) produce(st *xchgWorker) {
	c := st.child
	var batch *xchgBatch // taken only once a row arrives for it
	flush := func() {
		for len(st.queue) >= queueBatches && !x.closed {
			st.space.Wait(c.P)
		}
		if !x.closed {
			st.queue = append(st.queue, batch)
			x.ready.Broadcast()
			batch = nil
		}
	}
	for ; st.next < len(x.Parts) && !x.closed; st.next += len(x.workers) {
		op := x.Parts[st.next]
		if st.err = op.Open(c); st.err != nil {
			break
		}
		for !x.closed {
			t, ok, err := op.Next(c)
			if st.err = err; err != nil || !ok {
				break
			}
			if batch == nil {
				if n := len(st.spare); n > 0 {
					batch, st.spare = st.spare[n-1], st.spare[:n-1]
				} else if batch = xchgBatches.Get().(*xchgBatch); cap(batch.vals) < batchRows*len(t) {
					batch.rows, batch.vals = make([]row.Tuple, 0, batchRows), make([]interface{}, 0, batchRows*len(t))
				}
				batch.part = st.next
			}
			if batch.add(t); len(batch.rows) >= batchRows {
				flush()
			}
		}
		if batch != nil && st.err == nil {
			flush()
		}
		if err := op.Close(c); st.err == nil {
			st.err = err
		}
		if st.err != nil {
			break
		}
		x.ready.Broadcast() // the part may have queued nothing
	}
	if batch != nil {
		st.spare = append(st.spare, batch) // for Close to recycle
	}
	c.FlushCPU()
}

// Next returns the next merged row, parts in order.
func (x *Exchange) Next(c *Ctx) (row.Tuple, bool, error) {
	if !x.open {
		return nil, false, errors.New("exec: exchange not open")
	}
	for {
		if x.batch != nil && x.pos < len(x.batch.rows) {
			t := x.batch.rows[x.pos]
			x.pos++
			c.chargeCPU(c.CPU.PerXchg)
			return t, true, nil
		}
		if x.cur >= len(x.Parts) {
			return nil, false, nil
		}
		st := x.workers[x.cur%len(x.workers)]
		switch {
		case len(st.queue) > 0 && st.queue[0].part == x.cur:
			if b := x.batch; b != nil {
				b.rows, b.vals = b.rows[:0], b.vals[:0]
				w := x.workers[b.part%len(x.workers)]
				w.spare = append(w.spare, b)
			}
			x.batch = st.queue[0]
			st.queue = st.queue[:copy(st.queue, st.queue[1:])]
			x.pos = 0
			st.space.Signal()
		case st.next > x.cur:
			x.cur++
		case st.err != nil:
			return nil, false, st.err
		default:
			x.ready.Wait(c.P)
		}
	}
}

// Close shuts the producers down (waking any parked on a full queue),
// waits for them to exit, folds their spill counters into the
// consumer's context, and recycles every batch.
func (x *Exchange) Close(c *Ctx) error {
	if !x.open {
		return nil
	}
	x.open = false
	x.closed = true
	for _, st := range x.workers {
		st.space.Broadcast()
	}
	x.wg.Wait(c.P)
	var err error
	for _, st := range x.workers {
		if st.child != nil {
			c.SpilledRuns += st.child.SpilledRuns
			c.SpilledParts += st.child.SpilledParts
		}
		if err == nil && st.err != nil {
			err = st.err
		}
		for _, b := range st.queue {
			b.recycle()
		}
		for _, b := range st.spare {
			b.recycle()
		}
		st.queue, st.spare = nil, nil
	}
	if x.batch != nil {
		x.batch.recycle()
		x.batch = nil
	}
	return err
}

// ParallelScan reads a table in PK order on DOP workers merged through
// an Exchange: it cuts [From, To) into PK morsels that fit in a worker's
// queue and deals them round-robin, and each worker reads its morsels
// with one TableScan, bound once for all of them. With DOP <= 1, or when
// the tree is too small to split, it is a plain TableScan.
type ParallelScan struct {
	Table *catalog.Table
	From  []byte
	To    []byte
	DOP   int
	Cols  []string   // columns to materialise, in schema order (nil = all)
	Preds []ScanPred // evaluated in each worker, before a row is decoded

	schema *row.Schema
	inner  Op
}

// morsel is one PK range of a ParallelScan, read by its worker's
// TableScan, which every morsel of that worker shares.
type morsel struct {
	*TableScan
	from, to []byte
}

// Open aims the worker's bound scan at the morsel.
func (m *morsel) Open(c *Ctx) error {
	m.From, m.To = m.from, m.to
	return m.seek(c)
}

// Schema returns the schema of the materialised columns.
func (s *ParallelScan) Schema() *row.Schema {
	if s.schema == nil {
		s.schema = projected(s.Table.Schema, s.Cols)
	}
	return s.schema
}

// Open cuts the key range into morsels and spawns the scan workers.
func (s *ParallelScan) Open(c *Ctx) error {
	dop := s.DOP
	if dop <= 0 {
		dop = c.DOP
	}
	scan := &TableScan{Table: s.Table, From: s.From, To: s.To, Cols: s.Cols, Preds: s.Preds, schema: s.Schema()}
	if err := scan.bind(); err != nil {
		return err
	}
	if dop > 1 {
		n := max(int64(dop), (s.Table.Clustered.Entries+queueBatches*batchRows-1)/(queueBatches*batchRows))
		ranges, err := PartitionRanges(c.P, s.Table, s.From, s.To, int(n))
		if err != nil {
			return err
		}
		if len(ranges) > 1 {
			// The workers share the bound predicates' scratch: a scan never
			// yields between decoding their columns and copying them out.
			workers := make([]TableScan, min(dop, len(ranges)))
			for w := range workers {
				workers[w] = *scan
			}
			morsels, parts := make([]morsel, len(ranges)), make([]Op, len(ranges))
			for i, r := range ranges {
				morsels[i] = morsel{TableScan: &workers[i%len(workers)], from: r[0], to: r[1]}
				parts[i] = &morsels[i]
			}
			s.inner = &Exchange{Parts: parts, Workers: len(workers)}
			return s.inner.Open(c)
		}
	}
	s.inner = scan
	return scan.seek(c)
}

// Next returns the next row in PK order.
func (s *ParallelScan) Next(c *Ctx) (row.Tuple, bool, error) { return s.inner.Next(c) }

// Close releases the scan.
func (s *ParallelScan) Close(c *Ctx) error {
	if s.inner == nil {
		return nil
	}
	return s.inner.Close(c)
}

// ParallelAgg computes HashAgg's grouping over pre-partitioned inputs:
// each partition aggregates on its own worker process (partial
// aggregation), and the partial group tables are merged in partition
// order when all workers finish. AVG merges as (sum, count), so the
// result is exactly the serial aggregate; only the group output order
// (first appearance per partition, partitions in order) can differ from
// the serial operator.
type ParallelAgg struct {
	Parts   []Op
	GroupBy []string
	Aggs    []Agg

	schema *row.Schema
	out    []row.Tuple
	pos    int

	// GroupBytes is the summed peak group-table memory across workers.
	GroupBytes int64
}

// Schema returns group columns followed by aggregate columns.
func (a *ParallelAgg) Schema() *row.Schema {
	if a.schema == nil {
		a.schema = aggSchema(a.Parts[0].Schema(), a.GroupBy, a.Aggs)
	}
	return a.schema
}

// Open runs all partitions to completion and merges their partial
// aggregation states.
func (a *ParallelAgg) Open(c *Ctx) error {
	if len(a.Parts) == 0 {
		return errors.New("exec: parallel agg with no inputs")
	}
	k := c.Server.K
	wg := sim.NewWaitGroup(k)
	cores := make([]*aggCore, len(a.Parts))
	errs := make([]error, len(a.Parts))
	for i, op := range a.Parts {
		wg.Add(1)
		k.Go(fmt.Sprintf("pagg-%d", i), func(wp *sim.Proc) {
			defer wg.Done()
			child := c.Child(wp)
			core, err := newAggCore(op.Schema(), a.GroupBy, a.Aggs)
			if err == nil {
				err = core.consume(child, op)
			}
			cores[i], errs[i] = core, err
			child.FlushCPU()
			c.SpilledRuns += child.SpilledRuns
			c.SpilledParts += child.SpilledParts
		})
	}
	wg.Wait(c.P)
	groups := 0
	for i, err := range errs {
		if err != nil {
			return err
		}
		groups += len(cores[i].order)
	}
	// One table sized for every partial group: merging never regrows it.
	merged := &aggCore{aggs: a.Aggs, groups: make(map[string]*aggState, groups), order: make([]string, 0, groups)}
	merged.mergeFrom(cores[0])
	for _, core := range cores[1:] {
		merged.mergeFrom(core)
		// Merging k groups costs one hash probe each on the consumer.
		c.chargeCPU(c.CPU.PerHash * 1)
	}
	a.out = merged.emit(a.Aggs)
	a.GroupBytes = merged.bytes
	a.pos = 0
	return nil
}

// Next returns the next merged group row.
func (a *ParallelAgg) Next(c *Ctx) (row.Tuple, bool, error) {
	if a.pos >= len(a.out) {
		return nil, false, nil
	}
	t := a.out[a.pos]
	a.pos++
	return t, true, nil
}

// Close releases agg state.
func (a *ParallelAgg) Close(c *Ctx) error {
	a.out = nil
	return nil
}
