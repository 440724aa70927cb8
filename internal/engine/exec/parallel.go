package exec

import (
	"errors"
	"fmt"
	"sync"

	"remotedb/internal/engine/catalog"
	"remotedb/internal/engine/row"
	"remotedb/internal/sim"
)

// PartitionRanges splits the PK range [from, to) of a table into up to
// dop consecutive sub-ranges using the clustered B-tree's root-level
// separators, so parallel workers scan disjoint key ranges. Fewer than
// dop ranges come back when the tree is too small to split that finely.
func PartitionRanges(p *sim.Proc, t *catalog.Table, from, to []byte, dop int) ([][2][]byte, error) {
	seps, err := t.Clustered.SplitPoints(p, dop)
	if err != nil {
		return nil, err
	}
	ranges := [][2][]byte{}
	lo := from
	for _, s := range seps {
		if from != nil && string(s) <= string(from) {
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

// xchgBatch is one unit handed from a producer to the consumer: copies
// of the rows its producer was lent, laid out in vals. The consumer
// lends them in turn and hands the batch back through spare; Close hands
// every batch to xchgBatches.
type xchgBatch struct {
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

// xchgPart is the per-producer stream state shared (in simulated time,
// one runnable process at a time) between a worker and the consumer.
type xchgPart struct {
	op    Op
	child *Ctx
	queue []*xchgBatch
	spare []*xchgBatch // batches the consumer has drained, for produce to refill
	done  bool
	err   error
	space *sim.Cond // producer waits here when the queue is full
}

// Exchange runs one producer process per input and merges their streams,
// emitting partitions in input order — so an exchange over consecutive
// PK ranges preserves PK order while the producers' I/O and per-row CPU
// overlap. Back-pressure is a bounded per-partition batch queue: a
// producer that runs ahead of the consumer parks until space frees.
//
// Each row moved through the merge charges CPUProfile.PerXchg on the
// consumer's context; producers charge their own scan CPU, predicates
// included, on their own worker processes (cores).
type Exchange struct {
	Parts []Op
	// QueueBatches bounds each partition's queue (default 4 batches).
	QueueBatches int
	// BatchRows sets the producer batch size (default 128 rows).
	BatchRows int

	parts  []*xchgPart
	cur    int
	batch  *xchgBatch // the batch Next lends from
	pos    int
	ready  *sim.Cond // consumer waits here for data
	wg     *sim.WaitGroup
	closed bool
	open   bool
}

// Schema returns the (shared) schema of the partition streams.
func (x *Exchange) Schema() *row.Schema { return x.Parts[0].Schema() }

// Open spawns the producer processes.
func (x *Exchange) Open(c *Ctx) error {
	if len(x.Parts) == 0 {
		return errors.New("exec: exchange with no inputs")
	}
	if x.QueueBatches <= 0 {
		x.QueueBatches = 4
	}
	if x.BatchRows <= 0 {
		x.BatchRows = 128
	}
	k := c.Server.K
	x.ready = sim.NewCond(k)
	x.wg = sim.NewWaitGroup(k)
	x.cur, x.batch, x.pos = 0, nil, 0
	x.closed = false
	x.open = true
	x.parts = make([]*xchgPart, len(x.Parts))
	for i, op := range x.Parts {
		st := &xchgPart{op: op, space: sim.NewCond(k)}
		x.parts[i] = st
		x.wg.Add(1)
		k.Go(fmt.Sprintf("xchg-%d", i), func(wp *sim.Proc) {
			defer x.wg.Done()
			st.child = c.Child(wp)
			x.produce(st)
			x.ready.Broadcast()
		})
	}
	return nil
}

// produce runs one partition to completion (or until the exchange is
// closed under it).
func (x *Exchange) produce(st *xchgPart) {
	c := st.child
	if err := st.op.Open(c); err != nil {
		st.err = err
		st.done = true
		return
	}
	width := st.op.Schema().Len()
	var batch *xchgBatch // taken only once a row arrives for it
	flush := func() bool {
		for len(st.queue) >= x.QueueBatches && !x.closed {
			st.space.Wait(c.P)
		}
		if x.closed {
			return false
		}
		st.queue = append(st.queue, batch)
		x.ready.Broadcast()
		batch = nil
		return true
	}
	for !x.closed {
		t, ok, err := st.op.Next(c)
		if err != nil {
			st.err = err
			break
		}
		if !ok {
			break
		}
		if batch == nil {
			if n := len(st.spare); n > 0 {
				batch, st.spare = st.spare[n-1], st.spare[:n-1]
			} else if batch = xchgBatches.Get().(*xchgBatch); cap(batch.rows) == 0 {
				batch.rows, batch.vals = make([]row.Tuple, 0, x.BatchRows), make([]interface{}, 0, x.BatchRows*width)
			}
		}
		batch.add(t)
		if len(batch.rows) >= x.BatchRows && !flush() {
			break
		}
	}
	if batch != nil && (st.err != nil || !flush()) {
		st.spare = append(st.spare, batch) // for Close to recycle
	}
	if err := st.op.Close(c); err != nil && st.err == nil {
		st.err = err
	}
	c.FlushCPU()
	st.done = true
}

// Next returns the next merged row, partitions in order.
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
		if x.cur >= len(x.parts) {
			return nil, false, nil
		}
		st := x.parts[x.cur]
		if len(st.queue) > 0 {
			if x.batch != nil {
				x.batch.rows, x.batch.vals = x.batch.rows[:0], x.batch.vals[:0]
				st.spare = append(st.spare, x.batch)
			}
			x.batch = st.queue[0]
			st.queue = st.queue[:copy(st.queue, st.queue[1:])]
			x.pos = 0
			st.space.Signal()
			continue
		}
		if st.err != nil {
			return nil, false, st.err
		}
		if st.done {
			x.cur++
			continue
		}
		x.ready.Wait(c.P)
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
	for _, st := range x.parts {
		st.space.Broadcast()
	}
	x.wg.Wait(c.P)
	var err error
	for _, st := range x.parts {
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

// ParallelScan reads a table in PK order with DOP range-partitioned
// workers merged through an Exchange, each partition's TableScan
// evaluating Preds. With DOP <= 1, or when the tree is too small to
// split, it degrades to a plain TableScan with the same Preds.
type ParallelScan struct {
	Table *catalog.Table
	From  []byte
	To    []byte
	DOP   int
	Cols  []string   // columns to materialise, in schema order (nil = all)
	Preds []ScanPred // evaluated in each partition, before a row is decoded

	schema *row.Schema
	inner  Op
}

// Schema returns the schema of the materialised columns.
func (s *ParallelScan) Schema() *row.Schema {
	if s.schema == nil {
		s.schema = projected(s.Table.Schema, s.Cols)
	}
	return s.schema
}

// Open partitions the key range and spawns the scan workers.
func (s *ParallelScan) Open(c *Ctx) error {
	dop := s.DOP
	if dop <= 0 {
		dop = c.DOP
	}
	if dop > 1 {
		ranges, err := PartitionRanges(c.P, s.Table, s.From, s.To, dop)
		if err != nil {
			return err
		}
		if len(ranges) > 1 {
			parts := make([]Op, len(ranges))
			for i, r := range ranges {
				parts[i] = &TableScan{Table: s.Table, From: r[0], To: r[1], Cols: s.Cols, Preds: s.Preds}
			}
			s.inner = &Exchange{Parts: parts}
			return s.inner.Open(c)
		}
	}
	s.inner = &TableScan{Table: s.Table, From: s.From, To: s.To, Cols: s.Cols, Preds: s.Preds}
	return s.inner.Open(c)
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
	for _, err := range errs {
		if err != nil {
			return err
		}
	}
	merged := cores[0]
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
