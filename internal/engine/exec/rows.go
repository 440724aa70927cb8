package exec

import (
	"slices"
	"time"

	"remotedb/internal/engine/row"
)

// Rows is the streaming result iterator: the caller-facing face of the
// Volcano pipeline. Non-blocking operators beneath it (scan, filter,
// project, limit, join probe, exchange) hand tuples through one at a
// time, so a consumer that stops early (or keeps only a running
// aggregate) never pays for materializing the full result set.
type Rows struct {
	c      *Ctx
	op     Op
	n      int64
	closed bool
	err    error
	prevDL time.Duration // proc deadline to restore on Close
}

// Open opens an operator tree and returns its streaming iterator. The
// caller must Close the Rows (Close is idempotent and safe after an
// error) to release operator state and flush accrued CPU.
//
// If the context carries a deadline budget, Open stamps the absolute
// deadline (Now+Budget) on the proc for the life of the query; Close
// restores whatever deadline the proc had before, so back-to-back
// queries on one proc each get a fresh budget.
func Open(c *Ctx, op Op) (*Rows, error) {
	prev := c.P.Deadline()
	if c.Budget > 0 {
		c.P.SetDeadline(c.P.Now() + c.Budget)
	}
	if err := op.Open(c); err != nil {
		c.P.SetDeadline(prev)
		return nil, err
	}
	return &Rows{c: c, op: op, prevDL: prev}, nil
}

// Schema returns the result schema.
func (r *Rows) Schema() *row.Schema { return r.op.Schema() }

// Next returns the next result row; ok=false at the end of the stream.
// The row is the caller's: Next copies the row the operator tree lends.
func (r *Rows) Next() (row.Tuple, bool, error) {
	t, ok, err := r.next()
	return slices.Clone(t), ok, err
}

// next returns the row the tree lends, valid until the next call.
func (r *Rows) next() (row.Tuple, bool, error) {
	if r.closed {
		return nil, false, r.err
	}
	t, ok, err := r.op.Next(r.c)
	if err != nil {
		r.err = err
		r.Close()
		return nil, false, err
	}
	if !ok {
		return nil, false, nil
	}
	r.n++
	return t, true, nil
}

// Close releases the operator tree, flushes batched CPU debt and records
// the row count in the context. It is idempotent.
func (r *Rows) Close() error {
	if r.closed {
		return nil
	}
	r.closed = true
	err := r.op.Close(r.c)
	if r.c.Budget > 0 {
		r.c.P.SetDeadline(r.prevDL)
	}
	r.c.FlushCPU()
	r.c.RowsOut = r.n
	if r.err == nil {
		r.err = err
	}
	return err
}

// Count drains the remaining stream, returning the total row count
// (rows already consumed via Next included), and closes the iterator.
func (r *Rows) Count() (int64, error) {
	for {
		_, ok, err := r.next()
		if err != nil {
			return r.n, err
		}
		if !ok {
			break
		}
	}
	err := r.Close()
	return r.n, err
}
