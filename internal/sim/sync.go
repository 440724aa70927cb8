package sim

import "time"

// Cond is a condition variable on virtual time. Wait parks the calling
// process; Signal wakes the oldest waiter, Broadcast wakes all.
type Cond struct {
	k       *Kernel
	waiters []*Proc
}

// NewCond creates a condition variable.
func NewCond(k *Kernel) *Cond { return &Cond{k: k} }

// Wait parks the process until signalled.
func (c *Cond) Wait(p *Proc) {
	c.waiters = append(c.waiters, p)
	p.blockHere()
}

// Signal wakes the oldest waiter, if any.
func (c *Cond) Signal() {
	if len(c.waiters) == 0 {
		return
	}
	p := c.waiters[0]
	if len(c.waiters) == 1 {
		// Keep the backing array: a proc that parks here again and again
		// (a pool's idle worker) then appends without allocating.
		c.waiters[0] = nil
		c.waiters = c.waiters[:0]
	} else {
		c.waiters = c.waiters[1:]
	}
	c.k.wake(p)
}

// Broadcast wakes all waiters.
func (c *Cond) Broadcast() {
	for _, p := range c.waiters {
		c.k.wake(p)
	}
	clear(c.waiters)
	c.waiters = c.waiters[:0] // a cond waited on again parks without allocating
}

// WaitGroup counts outstanding work in virtual time.
type WaitGroup struct {
	k       *Kernel
	n       int
	waiters []*Proc
}

// NewWaitGroup creates a wait group.
func NewWaitGroup(k *Kernel) *WaitGroup { return &WaitGroup{k: k} }

// Add increments the counter by delta.
func (wg *WaitGroup) Add(delta int) {
	wg.n += delta
	if wg.n < 0 {
		panic("sim: negative WaitGroup counter")
	}
	if wg.n == 0 {
		for _, p := range wg.waiters {
			wg.k.wake(p)
		}
		clear(wg.waiters)
		wg.waiters = wg.waiters[:0] // a reused WaitGroup parks waiters without allocating
	}
}

// Done decrements the counter by one.
func (wg *WaitGroup) Done() { wg.Add(-1) }

// Wait parks the process until the counter reaches zero.
func (wg *WaitGroup) Wait(p *Proc) {
	if wg.n == 0 {
		return
	}
	wg.waiters = append(wg.waiters, p)
	p.blockHere()
}

// Chan is an unbounded FIFO channel between simulation processes.
type Chan[T any] struct {
	k      *Kernel
	items  []T
	recvrs []*Proc
	closed bool
}

// NewChan creates a channel.
func NewChan[T any](k *Kernel) *Chan[T] { return &Chan[T]{k: k} }

// Send enqueues v and wakes one receiver. It never blocks.
func (ch *Chan[T]) Send(v T) {
	if ch.closed {
		panic("sim: send on closed Chan")
	}
	ch.items = append(ch.items, v)
	ch.wakeOne()
}

// Close marks the channel closed; blocked and future receivers get ok=false
// once drained.
func (ch *Chan[T]) Close() {
	ch.closed = true
	for _, p := range ch.recvrs {
		ch.k.wake(p)
	}
	ch.recvrs = nil
}

func (ch *Chan[T]) wakeOne() {
	if len(ch.recvrs) == 0 {
		return
	}
	p := ch.recvrs[0]
	ch.recvrs = ch.recvrs[1:]
	ch.k.wake(p)
}

// Recv blocks until an item is available or the channel is closed and
// drained. ok is false only in the latter case.
func (ch *Chan[T]) Recv(p *Proc) (v T, ok bool) {
	for {
		if len(ch.items) > 0 {
			v = ch.items[0]
			ch.items = ch.items[1:]
			// Another item may still be pending for another receiver.
			if len(ch.items) > 0 {
				ch.wakeOne()
			}
			return v, true
		}
		if ch.closed {
			var zero T
			return zero, false
		}
		ch.recvrs = append(ch.recvrs, p)
		p.blockHere()
	}
}

// Regulator models a serially shared bandwidth channel (a NIC port, a
// memory bus). A transfer of size s arriving at time t completes at
// max(t, freeAt) + s/rate; freeAt advances to the completion time. This
// FIFO store-and-forward discipline yields linear scaling until
// saturation and queueing delays after it, which is exactly the behaviour
// Figures 5, 6 and 25 of the paper rely on.
type Regulator struct {
	k           *Kernel
	name        string
	bytesPerSec float64
	freeAt      int64
	bytesMoved  int64
}

// NewRegulator creates a bandwidth regulator.
func NewRegulator(k *Kernel, name string, bytesPerSec float64) *Regulator {
	if bytesPerSec <= 0 {
		panic("sim: regulator rate must be positive")
	}
	return &Regulator{k: k, name: name, bytesPerSec: bytesPerSec}
}

// Reserve books a transfer of size bytes and returns its completion time.
// It does not block; callers SleepUntil the returned time.
func (rg *Regulator) Reserve(size int) time.Duration {
	start := rg.k.now
	if rg.freeAt > start {
		start = rg.freeAt
	}
	d := int64(float64(size) / rg.bytesPerSec * 1e9)
	rg.freeAt = start + d
	rg.bytesMoved += int64(size)
	return time.Duration(rg.freeAt)
}

// ReserveAfter is Reserve but the transfer cannot start before earliest.
func (rg *Regulator) ReserveAfter(earliest time.Duration, size int) time.Duration {
	start := rg.k.now
	if e := int64(earliest); e > start {
		start = e
	}
	if rg.freeAt > start {
		start = rg.freeAt
	}
	d := int64(float64(size) / rg.bytesPerSec * 1e9)
	rg.freeAt = start + d
	rg.bytesMoved += int64(size)
	return time.Duration(rg.freeAt)
}

// Transfer blocks the process for a transfer of size bytes.
func (rg *Regulator) Transfer(p *Proc, size int) {
	p.SleepUntil(rg.Reserve(size))
}

// BytesMoved returns the total bytes pushed through the regulator.
func (rg *Regulator) BytesMoved() int64 { return rg.bytesMoved }
