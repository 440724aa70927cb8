package sim

import "time"

// Resource is a counted FIFO resource: Acquire blocks until n units are
// available, grants are strictly first-come first-served. It models disk
// spindles, CPU cores, NIC DMA engines, connection slots, and so on.
type Resource struct {
	k        *Kernel
	name     string
	capacity int
	avail    int

	// waiters[head:] is the FIFO queue, oldest first; granted waiters go
	// on spare for the next Acquire that queues.
	waiters []*resWaiter
	head    int
	spare   []*resWaiter

	// Utilization accounting.
	busyNanos int64
	lastAt    int64
}

type resWaiter struct {
	p       *Proc
	n       int
	granted bool
}

// NewResource creates a resource with the given capacity (units).
func NewResource(k *Kernel, name string, capacity int) *Resource {
	if capacity <= 0 {
		panic("sim: resource capacity must be positive")
	}
	return &Resource{k: k, name: name, capacity: capacity, avail: capacity}
}

// Capacity returns the total units.
func (r *Resource) Capacity() int { return r.capacity }

// Available returns the currently free units.
func (r *Resource) Available() int { return r.avail }

// InUse returns the currently held units.
func (r *Resource) InUse() int { return r.capacity - r.avail }

// account charges the interval since the last change with the units held
// through it. Every change to avail calls it first, so capacity - avail
// is that interval's holder count.
func (r *Resource) account() {
	now := r.k.now
	r.busyNanos += int64(r.capacity-r.avail) * (now - r.lastAt)
	r.lastAt = now
}

// BusyNanos returns cumulative unit-nanoseconds of held capacity, for
// windowed utilization sampling.
func (r *Resource) BusyNanos() int64 {
	r.account()
	return r.busyNanos
}

// Utilization returns the time-averaged fraction of capacity in use
// since simulation start.
func (r *Resource) Utilization() float64 {
	r.account()
	if r.k.now == 0 {
		return 0
	}
	return float64(r.busyNanos) / (float64(r.k.now) * float64(r.capacity))
}

// Acquire blocks the process until n units are available and takes them.
func (r *Resource) Acquire(p *Proc, n int) {
	if n <= 0 {
		return
	}
	if n > r.capacity {
		panic("sim: acquire exceeds resource capacity: " + r.name)
	}
	if len(r.waiters) == 0 && r.avail >= n {
		r.account()
		r.avail -= n
		return
	}
	var w *resWaiter
	if last := len(r.spare) - 1; last >= 0 {
		w, r.spare = r.spare[last], r.spare[:last]
	} else {
		w = &resWaiter{}
	}
	w.p, w.n = p, n
	if len(r.waiters) == cap(r.waiters) && r.head > 0 {
		// Slide the queue down over the popped prefix instead of growing.
		live := copy(r.waiters, r.waiters[r.head:])
		clear(r.waiters[live:])
		r.waiters, r.head = r.waiters[:live], 0
	}
	r.waiters = append(r.waiters, w)
	p.blockHere()
	if !w.granted {
		panic("sim: resource waiter resumed without grant: " + r.name)
	}
	w.p, w.granted = nil, false
	r.spare = append(r.spare, w)
}

// TryAcquire takes n units if immediately available, without blocking.
func (r *Resource) TryAcquire(n int) bool {
	if n <= 0 {
		return true
	}
	if len(r.waiters) == 0 && r.avail >= n {
		r.account()
		r.avail -= n
		return true
	}
	return false
}

// Release returns n units and wakes waiters in FIFO order.
func (r *Resource) Release(n int) {
	if n <= 0 {
		return
	}
	r.account()
	r.avail += n
	if r.avail > r.capacity {
		panic("sim: release exceeds resource capacity: " + r.name)
	}
	for r.head < len(r.waiters) {
		w := r.waiters[r.head]
		if r.avail < w.n {
			break // strict FIFO: do not let later small requests jump the queue
		}
		r.waiters[r.head] = nil
		r.head++
		r.avail -= w.n
		w.granted = true
		r.k.wake(w.p)
	}
	if r.head == len(r.waiters) {
		// An empty queue is waiters[:0] at head 0: Acquire and TryAcquire
		// test it by len(r.waiters).
		r.waiters, r.head = r.waiters[:0], 0
	}
}

// Use acquires n units, runs the process for d of virtual time, and
// releases the units. It is the common "occupy a device for its service
// time" idiom.
func (r *Resource) Use(p *Proc, n int, d time.Duration) {
	r.Acquire(p, n)
	p.Sleep(d)
	r.Release(n)
}
