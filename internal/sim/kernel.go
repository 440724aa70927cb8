//go:build go1.23

// Package sim implements a deterministic discrete-event simulation kernel.
//
// Each process runs as a coroutine (iter.Pull), and the kernel runs
// exactly one of them at a time: a process executes until it blocks on a
// kernel primitive (Sleep, Resource.Acquire, Cond.Wait, ...), at which
// point it pops the next event off the virtual-time heap itself. If that
// event is its own wake-up it simply keeps running; otherwise it names
// the woken process and yields to Run, whose loop resumes that one: a
// coroutine switch each way, on one OS thread. A process that returns
// gives its coroutine back for the next spawn. Events at equal times are
// ordered by a monotonically increasing sequence number, so a simulation
// with a fixed RNG seed is bit-for-bit reproducible. No wall-clock time
// is consulted anywhere.
//
// The kernel is the substrate for every hardware and software model in
// this repository: disks, NICs, CPU schedulers, the memory broker, and
// the database engine all advance on the same virtual clock.
package sim

import (
	"fmt"
	"iter"
	"math/rand"
	"runtime"
	"time"
)

// Kernel owns the virtual clock and the event queue.
type Kernel struct {
	now    int64 // virtual time in nanoseconds
	eq     eventHeap
	seq    int64
	limit  int64     // virtual-time limit of the current Run (0 = none)
	firing int64     // seq of the callback event dispatch is running (Timer's staleness check)
	next   *Proc     // the proc Run resumes next; nil once the queue drained or the limit was hit
	live   []*Proc   // every process that has not exited, for Close
	free   []*worker // coroutines whose proc returned, for the next spawn
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

// eventHeap is a 4-ary min-heap of event values ordered by (at, seq).
// seq is unique, so the order is total and the pop sequence does not
// depend on the heap's shape: a wider node only makes the heap shallower,
// so a pop moves fewer events (stale timers keep it large; DESIGN §9).
type eventHeap []event

func (e *event) before(o *event) bool {
	if e.at != o.at {
		return e.at < o.at
	}
	return e.seq < o.seq
}

func (h *eventHeap) push(ev event) {
	*h = append(*h, ev)
	s := *h
	i := len(s) - 1
	for i > 0 {
		parent := (i - 1) / 4
		if !ev.before(&s[parent]) {
			break
		}
		s[i] = s[parent]
		i = parent
	}
	s[i] = ev
}

func (h *eventHeap) pop() event {
	s := *h
	top := s[0]
	n := len(s) - 1
	last := s[n]
	s[n] = event{} // drop the proc and closure references
	s = s[:n]
	*h = s
	if n == 0 {
		return top
	}
	// Sift the hole at the root down, then drop last into it.
	i := 0
	for {
		c := 4*i + 1
		if c >= n {
			break
		}
		min := c
		for j := c + 1; j < c+4 && j < n; j++ {
			if s[j].before(&s[min]) {
				min = j
			}
		}
		if !s[min].before(&last) {
			break
		}
		s[i] = s[min]
		i = min
	}
	s[i] = last
	return top
}

// New returns a kernel whose RNG is seeded with seed.
func New(seed int64) *Kernel {
	return &Kernel{rng: rand.New(rand.NewSource(seed))}
}

// Now returns the current virtual time as a duration since simulation start.
func (k *Kernel) Now() time.Duration { return time.Duration(k.now) }

// Rand returns the kernel's deterministic random source. It must only be
// used from within simulation processes (which run one at a time).
func (k *Kernel) Rand() *rand.Rand { return k.rng }

// LiveProcs returns the number of processes that have not exited:
// running, parked, or spawned and not yet started.
func (k *Kernel) LiveProcs() int { return len(k.live) }

// Proc is a simulation process. All blocking methods must be called from
// the process's own function.
type Proc struct {
	k        *Kernel
	name     string
	w        *worker       // the coroutine running it; nil once it exited
	liveIdx  int           // position in k.live
	deadline time.Duration // absolute virtual time; 0 = no deadline
}

// worker is a coroutine that runs procs one after another: spawn hands it
// a proc, and when that proc's function returns the worker goes back on
// the kernel's free list and waits, suspended, for the next.
type worker struct {
	p      *Proc // assigned by spawn, taken by loop
	fn     func(p *Proc)
	resume func() (struct{}, bool) // iter.Pull's next; only Run's loop calls it
	stop   func()
	yield  func(struct{}) bool // back to Run; false once Close stopped the worker
}

// Name returns the name the process was spawned with.
func (p *Proc) Name() string { return p.name }

// Kernel returns the kernel this process runs on.
func (p *Proc) Kernel() *Kernel { return p.k }

// Now returns the current virtual time.
func (p *Proc) Now() time.Duration { return p.k.Now() }

// SetDeadline attaches an absolute virtual-time deadline to the process
// (0 clears it). The kernel never enforces it; it is a process-local
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
	p := &Proc{k: k, name: name}
	if k.closed {
		return p // a deferred function of a poisoned process spawned it: never runs
	}
	var w *worker
	if n := len(k.free); n > 0 {
		w = k.free[n-1]
		k.free[n-1] = nil
		k.free = k.free[:n-1]
	} else {
		w = new(worker)
		w.resume, w.stop = iter.Pull(w.loop)
	}
	w.p, w.fn = p, fn
	p.w = w
	p.liveIdx = len(k.live)
	k.live = append(k.live, p)
	k.schedule(at, p)
	return p
}

// loop is the worker's coroutine body.
func (w *worker) loop(yield func(struct{}) bool) {
	w.yield = yield
	for {
		p, fn := w.p, w.fn
		w.p, w.fn = nil, nil // an idle worker pins no proc
		w.run(p, fn)
		if !yield(struct{}{}) {
			return // Close stopped the idle worker
		}
	}
}

// run runs one proc to its end. The exit is deferred, so the next proc is
// picked even if fn bails out via runtime.Goexit (t.Fatal inside a
// simulation process); that Goexit ends the coroutine, so only a worker
// whose fn returned goes back on the free list.
func (w *worker) run(p *Proc, fn func(p *Proc)) {
	defer p.exit()
	fn(p)
	p.k.free = append(p.k.free, w)
}

// exit unlinks the finished process and picks the next one to run.
func (p *Proc) exit() {
	k := p.k
	if k.closed {
		return // Close is unwinding it
	}
	p.w = nil // a stray wake-up for it crashes Run instead of resuming another proc
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

// After schedules fn to run at now+d with no process context, inside
// whichever process (or Run) is dispatching when it comes due. fn must
// not block on simulation primitives or call runtime.Goexit.
func (k *Kernel) After(d time.Duration, fn func()) {
	k.seq++
	k.eq.push(event{at: k.now + int64(d), seq: k.seq, fn: fn})
}

// Timer is a k.After that can be stopped and re-armed without
// allocating. Reset takes a sequence number exactly as After does, so a
// timer armed where an After was called fires at the same point of the
// event order. Stop and Reset leave the armed event in the queue: when it
// comes due it finds its seq is no longer the timer's and does nothing,
// so a stale firing costs a pop but runs no callback and schedules
// nothing. What a pending event retains is the timer itself.
type Timer struct {
	k    *Kernel
	fn   func()
	fire func() // t.onFire, bound once
	seq  int64  // seq of the armed event; 0 = not armed
}

// NewTimer returns a stopped timer that runs fn (under the rules of
// After's fn) each time it fires.
func NewTimer(k *Kernel, fn func()) *Timer {
	t := &Timer{k: k, fn: fn}
	t.fire = t.onFire
	return t
}

// Reset arms the timer to fire at now+d, dropping any firing still
// pending.
func (t *Timer) Reset(d time.Duration) {
	k := t.k
	k.seq++
	t.seq = k.seq
	k.eq.push(event{at: k.now + int64(d), seq: k.seq, fn: t.fire})
}

// Stop disarms the timer; it reports whether a firing was pending.
func (t *Timer) Stop() bool {
	armed := t.seq != 0
	t.seq = 0
	return armed
}

func (t *Timer) onFire() {
	if t.seq != t.k.firing {
		return // stopped or re-armed since this event was queued
	}
	t.seq = 0
	t.fn()
}

// dispatch is the event loop. Whoever gives up the CPU runs it — a
// process that is about to block (self), one that just exited, or Run
// (both nil) — popping events in (at, seq) order and running callbacks
// inline until a process wake-up comes due. It returns true when that
// wake-up is self's own: the caller advances the clock and keeps running
// without a switch. Otherwise it records the woken process in k.next —
// nil when the queue is drained or the next event lies past the limit —
// and the caller, if a process, yields to Run, which resumes k.next.
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
			k.firing = ev.seq
			ev.fn()
			continue
		}
		if ev.p == self {
			return true
		}
		k.next = ev.p
		return false
	}
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
	// iter.Pull forwards a proc's runtime.Goexit to the goroutine that
	// resumed it, so the resuming happens on a goroutine of its own, and
	// a fresh one takes over when a Goexit ends it.
	for k.next != nil {
		done := make(chan struct{})
		go k.drive(done)
		<-done
	}
}

// drive resumes procs, each until it blocks or exits, until none is due.
func (k *Kernel) drive(done chan<- struct{}) {
	defer close(done)
	for k.next != nil {
		p := k.next
		k.next = nil
		p.w.resume()
	}
}

// Halted reports whether the last Run stopped due to the time limit.
func (k *Kernel) Halted() bool { return k.halted }

// Close tears the simulation down: every process that has not exited —
// parked or never started — is stopped with the kernel marked closed; a
// started one unwinds via runtime.Goexit, running its deferred functions.
// Close returns once all of them have, and once every idle coroutine has
// ended. Without it the parked processes and idle coroutines stay alive
// and pin everything they reference. Call it after Run has returned, from
// the goroutine that called Run. Processes unwind one at a time, in the
// order of k.live, and a deferred function that blocks on a simulation
// primitive exits at that point instead (the remaining deferred
// functions still run), so deferred functions must not rely on blocking.
// A closed kernel schedules nothing: Run returns at once and Go never
// starts its process.
func (k *Kernel) Close() {
	if k.closed {
		return
	}
	k.closed = true
	done := make(chan struct{})
	for _, p := range k.live {
		// A parked proc's yield reports false and blockHere calls
		// runtime.Goexit, which iter.Pull forwards to stop's caller: a
		// goroutine of its own.
		go func() {
			defer func() { done <- struct{}{} }()
			p.w.stop()
		}()
		<-done
	}
	for _, w := range k.free {
		w.stop() // an idle worker's loop returns
	}
	k.live, k.free = nil, nil
	k.eq = nil // pending events, plus wake-ups the unwinding processes queued
}

// blockHere parks the calling process; it returns when Run resumes it.
// The caller must already have arranged for a wakeup (scheduled event or
// registration with a waking primitive), otherwise the process stays
// parked until Close.
func (p *Proc) blockHere() {
	k := p.k
	if k.closed {
		runtime.Goexit() // blocking inside a deferred function during Close
	}
	if k.dispatch(p) {
		return
	}
	if !p.w.yield(struct{}{}) {
		runtime.Goexit() // Close stopped it
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
