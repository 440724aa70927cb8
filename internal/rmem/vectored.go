// Vectored (scatter-gather) transfers: ReadV/WriteV coalesce a list of
// per-element MR accesses into doorbell-batched RDMA posts. One
// sub-batch — bounded by one scheduler's staging capacity (slot count
// and staging-MR bytes) — pays a single doorbell (ClientPost), every
// element pays its own staging memcpy or on-demand registration, and
// all elements bound for the same destination server travel as one wire
// message: one charged round trip per destination instead of one per
// page. The SMB transports have no doorbell, so they degrade to one
// request per element.
package rmem

import (
	"fmt"
	"time"

	"remotedb/internal/sim"
)

// IOVec is one element of a scatter-gather transfer: len(Buf)+len(Tail)
// bytes at Off within MR, the first len(Buf) of them in Buf and the rest
// in Tail. Tail lets one element land in two places — a framed block's
// data in the caller's page and its trailer in a scratch — while it is
// still staged, checked, counted and priced as one element of the total
// length.
type IOVec struct {
	MR   *MR
	Off  int
	Buf  []byte
	Tail []byte
}

// n is the element's length.
func (v *IOVec) n() int { return len(v.Buf) + len(v.Tail) }

// ReadV reads every element of vecs through t, coalescing them into
// doorbell-batched transfers when the transport supports it. It returns
// nil when every element succeeded, otherwise a len(vecs) slice with a
// per-element result (nil entries for the elements that did succeed) —
// a revoked MR mid-batch fails only its own elements, so callers can
// fail over per element instead of retrying the whole vector.
func (c *Client) ReadV(p *sim.Proc, t Transport, vecs []IOVec) []error {
	return c.vectored(p, t, vecs, false)
}

// WriteV writes every element of vecs through t; error semantics match
// ReadV.
func (c *Client) WriteV(p *sim.Proc, t Transport, vecs []IOVec) []error {
	return c.vectored(p, t, vecs, true)
}

func (c *Client) vectored(p *sim.Proc, t Transport, vecs []IOVec, write bool) []error {
	if len(vecs) == 0 {
		return nil
	}
	if err := checkBudget(p, c); err != nil {
		return allFailed(len(vecs), err)
	}
	// errs is allocated by the first failure: the all-good vector, which
	// is nearly every vector, allocates nothing.
	var errs []error
	for i := range vecs {
		if err := checkRange(vecs[i].MR, vecs[i].Off, vecs[i].n()); err != nil {
			errs = setErr(errs, len(vecs), i, err)
		}
	}
	_, rdma := t.(*rdmaTransport)
	for lo := 0; lo < len(vecs); {
		if errs != nil && errs[lo] != nil {
			lo++
			continue
		}
		if !rdma {
			// No doorbell on the SMB paths: one request per element.
			v := &vecs[lo]
			if err := t.(*smbTransport).xfer(p, c, v.MR, v.Off, v.Buf, v.Tail, write); err != nil {
				errs = setErr(errs, len(vecs), lo, err)
			}
			lo++
			continue
		}
		var dests [8]dest // a sub-batch rarely spans more donors; append spills
		pl, hi := c.planBatch(dests[:0], vecs, errs, lo)
		c.issue(p, &pl, write)
		// Regions may have been revoked while the batch was in flight; only
		// the affected elements fail.
		for i := lo; i < hi; i++ {
			switch {
			case errs != nil && errs[i] != nil:
			case vecs[i].MR.revoked:
				errs = setErr(errs, len(vecs), i, ErrRevoked)
			default:
				if err := c.moveBytes(p, vecs[i].MR, vecs[i].Off, vecs[i].Buf, vecs[i].Tail, write); err != nil {
					errs = setErr(errs, len(vecs), i, err)
				}
			}
		}
		c.staging.Release(pl.n)
		lo = hi
	}
	return errs
}

func setErr(errs []error, n, i int, err error) []error {
	if errs == nil {
		errs = make([]error, n)
	}
	errs[i] = err
	return errs
}

func allFailed(n int, err error) []error {
	errs := make([]error, n)
	for i := range errs {
		errs[i] = err
	}
	return errs
}

// planBatch plans the sub-batch starting at vecs[lo] — the elements not
// already failed, up to what one scheduler can stage (its slot count
// and, when copying through staging, its staging-MR bytes; always at
// least one element, mirroring the scalar verb's tolerance of oversized
// transfers) — and returns it with the index the next one starts at.
// dests is the caller's (stack) room for the destination list.
func (c *Client) planBatch(dests []dest, vecs []IOVec, errs []error, lo int) (pl plan, hi int) {
	pl.dests = dests
	for hi = lo; hi < len(vecs) && pl.n < c.slotsPerSch; hi++ {
		if errs != nil && errs[hi] != nil {
			continue
		}
		n := vecs[hi].n()
		if c.Reg == RegStaging && pl.n > 0 && pl.total+n > c.stagingBytes {
			break
		}
		pl.n++
		pl.total += n
		pl.prep += c.prepCost(n)
		owner := vecs[hi].MR.Owner
		g := 0
		for g < len(pl.dests) && pl.dests[g].owner != owner {
			g++
		}
		if g == len(pl.dests) {
			pl.dests = append(pl.dests, dest{owner: owner})
		}
		pl.dests[g].bytes += n
	}
	return pl, hi
}

// spareRead is what one ReadVWithin shares with its detached transfer:
// the private landing buffer, the private vector over it, and the
// outcome. Whoever finishes last — the caller when the transfer
// completed in time, the orphaned transfer itself otherwise — returns it
// to the client's free list.
type spareRead struct {
	buf             []byte
	iov             []IOVec
	errs            []error
	done, abandoned bool
}

// spareFor takes a spareRead off the client's free list, sized for a
// private copy of vecs (contents undefined).
func (c *Client) spareFor(vecs []IOVec) *spareRead {
	sp := &spareRead{}
	if last := len(c.spare) - 1; last >= 0 {
		sp = c.spare[last]
		c.spare = c.spare[:last]
	}
	total := 0
	for i := range vecs {
		total += vecs[i].n()
	}
	if cap(sp.buf) < total {
		sp.buf = make([]byte, total)
	}
	sp.iov = sp.iov[:0]
	at := 0
	for i := range vecs {
		n := vecs[i].n()
		sp.iov = append(sp.iov, IOVec{MR: vecs[i].MR, Off: vecs[i].Off, Buf: sp.buf[at : at+n]})
		at += n
	}
	sp.errs, sp.done, sp.abandoned = nil, false, false
	return sp
}

// ReadVWithin is ReadV bounded by an absolute virtual-time deadline (0 =
// unbounded, plain ReadV). The vector runs in a detached process reading
// into one private buffer; the caller waits for whichever comes first,
// completion or the deadline timer. On timeout every element fails with
// ErrSlow at once and the orphaned transfer keeps running — abandoning
// an in-flight RDMA refunds neither the staging slots nor the wire time
// — but its bytes land in the private buffer and are discarded, so a
// late completion can never clobber memory the caller has since reused
// (vecs itself included: the transfer works from a private copy).
func (c *Client) ReadVWithin(p *sim.Proc, t Transport, vecs []IOVec, deadline time.Duration) []error {
	if deadline <= 0 || len(vecs) == 0 {
		return c.ReadV(p, t, vecs)
	}
	if p.Now() >= deadline {
		c.DeadlineMisses++
		return allFailed(len(vecs), fmt.Errorf("rmem: budget exhausted before read: %w", ErrSlow))
	}
	k := p.Kernel()
	sp := c.spareFor(vecs)
	cond := sim.NewCond(k)
	timedOut := false
	k.Go("rmem-deadline-read", func(cp *sim.Proc) {
		sp.errs = c.ReadV(cp, t, sp.iov)
		sp.done = true
		if sp.abandoned {
			c.spare = append(c.spare, sp) // the caller left; nobody else holds sp
		}
		cond.Broadcast()
	})
	k.After(deadline-p.Now(), func() {
		timedOut = true
		cond.Broadcast()
	})
	for !sp.done && !timedOut {
		cond.Wait(p)
	}
	if !sp.done {
		sp.abandoned = true
		c.DeadlineMisses++
		return allFailed(len(vecs), fmt.Errorf("rmem: read of %s missed deadline: %w", vecs[0].MR.ID, ErrSlow))
	}
	errs := sp.errs
	for i := range vecs {
		if errs == nil || errs[i] == nil {
			n := copy(vecs[i].Buf, sp.iov[i].Buf)
			copy(vecs[i].Tail, sp.iov[i].Buf[n:])
		}
	}
	c.spare = append(c.spare, sp)
	return errs
}
