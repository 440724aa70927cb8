// Package sim implements a deterministic discrete-event simulation kernel.
//
// Processes are ordinary goroutines, but the kernel runs exactly one of
// them at a time: a process executes until it blocks on a kernel primitive
// (Sleep, Resource.Acquire, Cond.Wait, ...), at which point it pops the
// next event off the virtual-time heap itself. If that event is its own
// wake-up it simply keeps running; otherwise it hands the baton straight
// to the woken process and parks. Events at equal times are ordered by a
// monotonically increasing sequence number, so a simulation with a fixed
// RNG seed is bit-for-bit reproducible. No wall-clock time is consulted
// anywhere.
//
// The kernel is the substrate for every hardware and software model in
// this repository: disks, NICs, CPU schedulers, the memory broker, and
// the database engine all advance on the same virtual clock.
package sim

import (
	"fmt"
	"math/rand"
	"runtime"
	"time"
)

// Kernel owns the virtual clock and the event queue.
type Kernel struct {
	now    int64 // virtual time in nanoseconds
	eq     eventHeap
	seq    int64
	limit  int64         // virtual-time limit of the current Run (0 = none)
	idle   chan struct{} // the dispatcher tells Run the queue drained or the limit was hit
	live   []*Proc       // every process that has not exited, for Close
	exited chan struct{} // a poisoned process tells Close it has unwound
	rng    *rand.Rand
	halted bool
	closed bool
}

// event is one heap entry: wake p, or run fn, at virtual time at.
type event struct {
	at  int64
	seq int64
	p   *Proc
	fn  func()
}

// eventHeap is a binary min-heap of event values ordered by (at, seq).
// seq is unique, so the order is total and the pop sequence does not
// depend on the heap's shape.
type eventHeap []event

func (h eventHeap) less(i, j int) bool {
	if h[i].at != h[j].at {
		return h[i].at < h[j].at
	}
	return h[i].seq < h[j].seq
}

func (h *eventHeap) push(ev event) {
	*h = append(*h, ev)
	s := *h
	for i := len(s) - 1; i > 0; {
		parent := (i - 1) / 2
		if !s.less(i, parent) {
			break
		}
		s[i], s[parent] = s[parent], s[i]
		i = parent
	}
}

func (h *eventHeap) pop() event {
	s := *h
	top := s[0]
	n := len(s) - 1
	s[0] = s[n]
	s[n] = event{} // drop the proc and closure references
	s = s[:n]
	*h = s
	for i := 0; ; {
		min := i
		if l := 2*i + 1; l < n && s.less(l, min) {
			min = l
		}
		if r := 2*i + 2; r < n && s.less(r, min) {
			min = r
		}
		if min == i {
			break
		}
		s[i], s[min] = s[min], s[i]
		i = min
	}
	return top
}

// New returns a kernel whose RNG is seeded with seed.
func New(seed int64) *Kernel {
	return &Kernel{
		idle:   make(chan struct{}, 1),
		exited: make(chan struct{}),
		rng:    rand.New(rand.NewSource(seed)),
	}
}

// Now returns the current virtual time as a duration since simulation start.
func (k *Kernel) Now() time.Duration { return time.Duration(k.now) }

// Rand returns the kernel's deterministic random source. It must only be
// used from within simulation processes (which run one at a time).
func (k *Kernel) Rand() *rand.Rand { return k.rng }

// Proc is a simulation process. All blocking methods must be called from
// the goroutine running the process.
type Proc struct {
	k        *Kernel
	name     string
	resume   chan struct{} // capacity 1: a parked process has at most one baton in flight
	liveIdx  int           // position in k.live
	deadline time.Duration // absolute virtual time; 0 = no deadline
}

// Name returns the name the process was spawned with.
func (p *Proc) Name() string { return p.name }

// Kernel returns the kernel this process runs on.
func (p *Proc) Kernel() *Kernel { return p.k }

// Now returns the current virtual time.
func (p *Proc) Now() time.Duration { return p.k.Now() }

// SetDeadline attaches an absolute virtual-time deadline to the process
// (0 clears it). The kernel never enforces it; it is a goroutine-local
// budget that deadline-aware layers (rmem transports, the file layer's
// retry loops) consult so a per-query budget flows down a call chain
// without threading a context parameter through every interface.
func (p *Proc) SetDeadline(t time.Duration) { p.deadline = t }

// Deadline returns the process's absolute deadline (0 = none).
func (p *Proc) Deadline() time.Duration { return p.deadline }

// Rand returns the kernel RNG.
func (p *Proc) Rand() *rand.Rand { return p.k.rng }

// Go spawns a new process that starts at the current virtual time.
// It may be called before Run or from within a running process.
func (k *Kernel) Go(name string, fn func(p *Proc)) *Proc {
	return k.spawn(k.now, name, fn)
}

// GoAt spawns a process that starts at virtual time at (>= now).
func (k *Kernel) GoAt(at time.Duration, name string, fn func(p *Proc)) *Proc {
	t := int64(at)
	if t < k.now {
		t = k.now
	}
	return k.spawn(t, name, fn)
}

func (k *Kernel) spawn(at int64, name string, fn func(p *Proc)) *Proc {
	p := &Proc{k: k, name: name, resume: make(chan struct{}, 1)}
	if k.closed {
		return p // a deferred function of a poisoned process spawned it: never runs
	}
	p.liveIdx = len(k.live)
	k.live = append(k.live, p)
	k.schedule(at, p)
	go p.run(fn)
	return p
}

func (p *Proc) run(fn func(p *Proc)) {
	// Deferred, so the baton moves on even if fn bails out via
	// runtime.Goexit (e.g. t.Fatal inside a simulation process).
	defer p.exit()
	<-p.resume // wait for a dispatcher (or Close) to start us
	if !p.k.closed {
		fn(p)
	}
}

// exit unlinks the finished process and passes the baton on.
func (p *Proc) exit() {
	k := p.k
	if k.closed {
		k.exited <- struct{}{}
		return
	}
	last := len(k.live) - 1
	moved := k.live[last]
	k.live[p.liveIdx] = moved
	moved.liveIdx = p.liveIdx
	k.live[last] = nil
	k.live = k.live[:last]
	k.dispatch(nil)
}

// schedule enqueues a wakeup for p at virtual time t.
func (k *Kernel) schedule(t int64, p *Proc) {
	k.seq++
	k.eq.push(event{at: t, seq: k.seq, p: p})
}

// After schedules fn to run at now+d with no process context, on
// whichever goroutine is dispatching when it comes due. fn must not block
// on simulation primitives or exit its goroutine.
func (k *Kernel) After(d time.Duration, fn func()) {
	k.seq++
	k.eq.push(event{at: k.now + int64(d), seq: k.seq, fn: fn})
}

// dispatch is the event loop. Whoever holds the baton runs it — a process
// that is about to block (self), one that just exited, or Run (both nil)
// — popping events in (at, seq) order and running callbacks inline until
// a process wake-up comes due. It returns true when that wake-up is
// self's own: the caller advances the clock and keeps running without
// touching a channel. Otherwise the baton has left the calling goroutine
// — to the woken process, or back to Run when the queue is drained or
// the next event lies past the limit — and the caller must park or exit.
func (k *Kernel) dispatch(self *Proc) bool {
	for len(k.eq) > 0 {
		if k.limit > 0 && k.eq[0].at > k.limit {
			// Peek, not pop: the event stays queued for a later Run.
			k.now = k.limit
			k.halted = true
			break
		}
		ev := k.eq.pop()
		if ev.at > k.now {
			k.now = ev.at
		}
		if ev.fn != nil {
			ev.fn()
			continue
		}
		if ev.p == self {
			return true
		}
		ev.p.resume <- struct{}{}
		return false
	}
	k.idle <- struct{}{}
	return false
}

// Run drives the simulation until no events remain or until virtual time
// would exceed limit (0 = no limit). Events past the limit stay queued: a
// later Run with a larger limit resumes where this one stopped.
func (k *Kernel) Run(limit time.Duration) {
	if k.closed {
		return
	}
	k.limit = int64(limit)
	k.halted = false
	k.dispatch(nil)
	<-k.idle
}

// Halted reports whether the last Run stopped due to the time limit.
func (k *Kernel) Halted() bool { return k.halted }

// Close tears the simulation down: every process that has not exited —
// parked or never started — is resumed with the kernel marked closed and
// unwinds via runtime.Goexit, running its deferred functions; Close
// returns once all of them have. Without it those goroutines stay parked
// forever and pin everything they reference. Call it after Run has
// returned, from the goroutine that called Run. Processes unwind one at a
// time, and a deferred function that blocks on a simulation primitive
// exits at that point instead (the remaining deferred functions still
// run), so deferred functions must not rely on blocking. A closed kernel
// schedules nothing: Run returns at once and Go never starts its process.
func (k *Kernel) Close() {
	if k.closed {
		return
	}
	k.closed = true
	for _, p := range k.live {
		p.resume <- struct{}{}
		<-k.exited
	}
	k.live = nil
	k.eq = nil // pending events, plus wake-ups the unwinding processes queued
}

// blockHere parks the calling process; it returns when a dispatcher
// resumes it. The caller must already have arranged for a wakeup
// (scheduled event or registration with a waking primitive), otherwise
// the process stays parked until Close.
func (p *Proc) blockHere() {
	k := p.k
	if k.closed {
		runtime.Goexit() // blocking inside a deferred function during Close
	}
	if k.dispatch(p) {
		return
	}
	<-p.resume
	if k.closed {
		runtime.Goexit()
	}
}

// Sleep suspends the process for d of virtual time. Negative or zero
// durations still yield through the event queue, preserving determinism.
func (p *Proc) Sleep(d time.Duration) {
	if d < 0 {
		d = 0
	}
	p.k.schedule(p.k.now+int64(d), p)
	p.blockHere()
}

// SleepUntil suspends the process until virtual time t (no-op if in the past).
func (p *Proc) SleepUntil(t time.Duration) {
	tt := int64(t)
	if tt < p.k.now {
		tt = p.k.now
	}
	p.k.schedule(tt, p)
	p.blockHere()
}

// Yield reschedules the process at the current time, letting other
// runnable processes (with earlier sequence numbers) run first.
func (p *Proc) Yield() { p.Sleep(0) }

// wake schedules p to resume at the current virtual time.
func (k *Kernel) wake(p *Proc) { k.schedule(k.now, p) }

func (p *Proc) String() string { return fmt.Sprintf("proc(%s)", p.name) }
