package rmem

import (
	"bytes"
	"testing"
	"time"

	"remotedb/internal/cluster"
	"remotedb/internal/fault"
	"remotedb/internal/hw/nic"
	"remotedb/internal/sim"
)

// withinBed is one donor MR holding fill in its first n 8 K pages, a
// client, and the n-element vector over those pages whose buffers are
// prefilled with 0x11.
func withinBed(p *sim.Proc, m, db *cluster.Server, n int, fill byte) (*Client, Transport, []IOVec) {
	pool, _ := NewPool(p, m, 1<<20, 1)
	mr, _ := pool.Acquire()
	c := NewClient(p, db, DefaultClientConfig())
	tr := NewTransport(nic.ProtoRDMA)
	if err := tr.Write(p, c, mr, 0, bytes.Repeat([]byte{fill}, n*8192)); err != nil {
		panic(err)
	}
	vecs := make([]IOVec, n)
	for i := range vecs {
		vecs[i] = IOVec{MR: mr, Off: i * 8192, Buf: bytes.Repeat([]byte{0x11}, 8192)}
	}
	return c, tr, vecs
}

func allBytes(vecs []IOVec, want byte) bool {
	for _, v := range vecs {
		for _, b := range v.Buf {
			if b != want {
				return false
			}
		}
	}
	return true
}

// A deadline of 0 degenerates to an ordinary vector, and a deadline far
// past the transfer time returns the data with no miss recorded — for a
// vector of one (the scalar read) and of four.
func TestReadVWithinInTime(t *testing.T) {
	for _, n := range []int{1, 4} {
		for _, budget := range []time.Duration{0, time.Second} {
			k := newKernel(t, 1)
			m := testServer(k, "m1")
			db := testServer(k, "db1")
			k.Go("setup", func(p *sim.Proc) {
				c, tr, vecs := withinBed(p, m, db, n, 0xAB)
				deadline := time.Duration(0)
				if budget > 0 {
					deadline = p.Now() + budget
				}
				if errs := c.ReadVWithin(p, tr, vecs, deadline); errs != nil {
					t.Errorf("n=%d budget=%v: errs = %v", n, budget, errs)
					return
				}
				if !allBytes(vecs, 0xAB) {
					t.Errorf("n=%d budget=%v: wrong bytes", n, budget)
				}
				if c.DeadlineMisses != 0 {
					t.Errorf("n=%d budget=%v: DeadlineMisses = %d", n, budget, c.DeadlineMisses)
				}
			})
			k.Run(0)
		}
	}
}

// Donor-side slowness far past the deadline: the caller gets ErrSlow for
// every element at the deadline (not after the full transfer), the miss
// counter ticks once, and the late completion lands in the private
// buffer, leaving the caller's memory untouched.
func TestReadVWithinMissReturnsErrSlow(t *testing.T) {
	for _, n := range []int{1, 4} {
		k := newKernel(t, 1)
		m := testServer(k, "m1")
		db := testServer(k, "db1")
		k.Go("setup", func(p *sim.Proc) {
			c, tr, vecs := withinBed(p, m, db, n, 0xEE)
			m.SetServiceDelay(50 * time.Millisecond)
			start := p.Now()
			errs := c.ReadVWithin(p, tr, vecs, p.Now()+time.Millisecond)
			if len(errs) != n {
				t.Errorf("n=%d: %d errors", n, len(errs))
				return
			}
			for i, err := range errs {
				if !fault.Slow(err) || !fault.Retryable(err) {
					t.Errorf("n=%d: errs[%d] = %v, want ErrSlow (retryable)", n, i, err)
				}
			}
			if waited := p.Now() - start; waited > 2*time.Millisecond {
				t.Errorf("n=%d: caller blocked %v past a 1ms deadline", n, waited)
			}
			if c.DeadlineMisses != 1 {
				t.Errorf("n=%d: DeadlineMisses = %d, want 1", n, c.DeadlineMisses)
			}
			// Let the orphaned transfer drain: it must not touch the
			// caller's buffers, and it hands its private state back.
			p.Sleep(100 * time.Millisecond)
			if !allBytes(vecs, 0x11) {
				t.Errorf("n=%d: abandoned read clobbered a caller buffer", n)
			}
			if len(c.spare) != 1 {
				t.Errorf("n=%d: %d spare buffers after the orphan landed, want 1", n, len(c.spare))
			}
			// The donor works again once the slowness clears.
			m.SetServiceDelay(0)
			if errs := c.ReadVWithin(p, tr, vecs, p.Now()+time.Second); errs != nil {
				t.Errorf("n=%d: post-recovery errs = %v", n, errs)
			}
			if !allBytes(vecs, 0xEE) {
				t.Errorf("n=%d: post-recovery read returned wrong bytes", n)
			}
		})
		k.Run(0)
	}
}

// A slow donor is slow for vectors too: its service delay is charged
// once per destination per sub-batch.
func TestVectoredPaysServiceDelayPerDestination(t *testing.T) {
	k := newKernel(t, 1)
	m := testServer(k, "m1")
	db := testServer(k, "db1")
	k.Go("setup", func(p *sim.Proc) {
		c, tr, vecs := withinBed(p, m, db, 4, 0x5C)
		start := p.Now()
		if errs := c.ReadV(p, tr, vecs); errs != nil {
			t.Error(errs)
		}
		fast := p.Now() - start
		m.SetServiceDelay(time.Millisecond)
		start = p.Now()
		if errs := c.ReadV(p, tr, vecs); errs != nil {
			t.Error(errs)
		}
		if slow := p.Now() - start; slow != fast+time.Millisecond {
			t.Errorf("4-element ReadV took %v against a donor 1ms slow, %v against a healthy one: want exactly 1ms more", slow, fast)
		}
	})
	k.Run(0)
}

// A proc whose deadline has passed gets ErrSlow for every element of a
// vector before anything is staged or sent.
func TestVectoredBudgetCheckAtIssue(t *testing.T) {
	k := newKernel(t, 1)
	m := testServer(k, "m1")
	db := testServer(k, "db1")
	k.Go("setup", func(p *sim.Proc) {
		c, tr, vecs := withinBed(p, m, db, 4, 0x5C)
		p.Sleep(10 * time.Millisecond)
		p.SetDeadline(p.Now() - time.Millisecond)
		defer p.SetDeadline(0)
		for name, call := range map[string]func(*sim.Proc, Transport, []IOVec) []error{"ReadV": c.ReadV, "WriteV": c.WriteV} {
			misses, rts, now, slots := c.DeadlineMisses, c.RoundTrips, p.Now(), c.StagingContention.HighWater
			errs := call(p, tr, vecs)
			if len(errs) != len(vecs) {
				t.Errorf("%s past the deadline: %d errors, want %d", name, len(errs), len(vecs))
				continue
			}
			for i, err := range errs {
				if !fault.Slow(err) {
					t.Errorf("%s: errs[%d] = %v, want ErrSlow", name, i, err)
				}
			}
			if c.DeadlineMisses != misses+1 || c.RoundTrips != rts || p.Now() != now || c.StagingContention.HighWater != slots {
				t.Errorf("%s past the deadline: misses %+d, round trips %+d, %v of virtual time, staging high water %d -> %d; want +1, 0, 0, unchanged",
					name, c.DeadlineMisses-misses, c.RoundTrips-rts, p.Now()-now, slots, c.StagingContention.HighWater)
			}
		}
		if !allBytes(vecs, 0x11) {
			t.Error("a refused ReadV wrote into the caller's buffers")
		}
	})
	k.Run(0)
}

// TestTransportBudgetCheckAtIssue verifies both transports refuse to
// start a transfer whose proc deadline has already passed.
func TestTransportBudgetCheckAtIssue(t *testing.T) {
	for _, proto := range []nic.Protocol{nic.ProtoRDMA, nic.ProtoSMB} {
		k := newKernel(t, 1)
		m := testServer(k, "m1")
		db := testServer(k, "db1")
		k.Go("setup", func(p *sim.Proc) {
			pool, _ := NewPool(p, m, 1<<20, 1)
			mr, _ := pool.Acquire()
			c := NewClient(p, db, DefaultClientConfig())
			tr := NewTransport(proto)
			p.Sleep(10 * time.Millisecond)
			p.SetDeadline(p.Now() - time.Millisecond)
			buf := make([]byte, 4096)
			if err := tr.Read(p, c, mr, 0, buf); !fault.Slow(err) {
				t.Errorf("%v: read past deadline: err = %v, want ErrSlow", proto, err)
			}
			if err := tr.Write(p, c, mr, 0, buf); !fault.Slow(err) {
				t.Errorf("%v: write past deadline: err = %v, want ErrSlow", proto, err)
			}
			if c.DeadlineMisses != 2 {
				t.Errorf("%v: DeadlineMisses = %d, want 2", proto, c.DeadlineMisses)
			}
			p.SetDeadline(0)
		})
		k.Run(0)
	}
}
