package sim

import (
	"fmt"
	"runtime"
	"testing"
	"time"
)

func TestSleepAdvancesClock(t *testing.T) {
	k := New(1)
	var woke time.Duration
	k.Go("sleeper", func(p *Proc) {
		p.Sleep(5 * time.Millisecond)
		woke = p.Now()
	})
	k.Run(0)
	if woke != 5*time.Millisecond {
		t.Fatalf("woke at %v, want 5ms", woke)
	}
	if k.Now() != 5*time.Millisecond {
		t.Fatalf("kernel now = %v, want 5ms", k.Now())
	}
}

func TestEventOrdering(t *testing.T) {
	k := New(1)
	var order []string
	k.Go("a", func(p *Proc) {
		p.Sleep(2 * time.Microsecond)
		order = append(order, "a")
	})
	k.Go("b", func(p *Proc) {
		p.Sleep(1 * time.Microsecond)
		order = append(order, "b")
	})
	k.Go("c", func(p *Proc) {
		p.Sleep(2 * time.Microsecond) // same time as a; spawned later, runs later
		order = append(order, "c")
	})
	k.Run(0)
	want := []string{"b", "a", "c"}
	for i := range want {
		if order[i] != want[i] {
			t.Fatalf("order = %v, want %v", order, want)
		}
	}
}

func TestDeterminism(t *testing.T) {
	run := func() []int64 {
		k := New(42)
		var trace []int64
		for i := 0; i < 10; i++ {
			k.Go("p", func(p *Proc) {
				for j := 0; j < 5; j++ {
					p.Sleep(time.Duration(p.Rand().Intn(1000)) * time.Microsecond)
					trace = append(trace, p.k.now)
				}
			})
		}
		k.Run(0)
		return trace
	}
	a, b := run(), run()
	if len(a) != len(b) {
		t.Fatalf("trace lengths differ: %d vs %d", len(a), len(b))
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("traces diverge at %d: %d vs %d", i, a[i], b[i])
		}
	}
}

func TestRunLimit(t *testing.T) {
	k := New(1)
	ticks := 0
	k.Go("ticker", func(p *Proc) {
		for {
			p.Sleep(time.Millisecond)
			ticks++
		}
	})
	k.Run(10 * time.Millisecond)
	if !k.Halted() {
		t.Fatal("kernel should report halted at limit")
	}
	if ticks != 10 {
		t.Fatalf("ticks = %d, want 10", ticks)
	}
	if k.Now() != 10*time.Millisecond {
		t.Fatalf("now = %v, want 10ms", k.Now())
	}
}

func TestGoAt(t *testing.T) {
	k := New(1)
	var started time.Duration
	k.GoAt(7*time.Millisecond, "late", func(p *Proc) { started = p.Now() })
	k.Run(0)
	if started != 7*time.Millisecond {
		t.Fatalf("started at %v, want 7ms", started)
	}
}

func TestAfterCallback(t *testing.T) {
	k := New(1)
	fired := time.Duration(-1)
	k.After(3*time.Millisecond, func() { fired = k.Now() })
	k.Go("idle", func(p *Proc) { p.Sleep(10 * time.Millisecond) })
	k.Run(0)
	if fired != 3*time.Millisecond {
		t.Fatalf("After fired at %v, want 3ms", fired)
	}
}

// timerScenario runs two sleepers and four callbacks armed through arm,
// two of them due at the same instant as a sleeper's wake-up, and logs
// everything that ran in the order it ran.
func timerScenario(arm func(k *Kernel, d time.Duration, fn func())) []string {
	k := New(1)
	defer k.Close()
	var log []string
	note := func(what string) func() {
		return func() { log = append(log, fmt.Sprintf("%v %s", k.Now(), what)) }
	}
	for i, d := range []time.Duration{2, 1, 2, 3} {
		arm(k, d*time.Millisecond, note(fmt.Sprint("cb", i)))
	}
	for _, name := range []string{"a", "b"} {
		k.Go(name, func(p *Proc) {
			for i := 0; i < 3; i++ {
				p.Sleep(time.Millisecond)
				note(name)()
				if name == "a" && i == 0 {
					arm(k, time.Millisecond, note("cb-from-a"))
				}
			}
		})
	}
	k.Run(0)
	return log
}

// A Timer is a stoppable After: armed where an After would be, it fires
// at the same point of the event order; stopped, it never fires; re-armed,
// it fires once, at the later time.
func TestTimer(t *testing.T) {
	after := timerScenario(func(k *Kernel, d time.Duration, fn func()) { k.After(d, fn) })
	timer := timerScenario(func(k *Kernel, d time.Duration, fn func()) { NewTimer(k, fn).Reset(d) })
	if fmt.Sprint(after) != fmt.Sprint(timer) {
		t.Errorf("event order differs:\nAfter %v\nTimer %v", after, timer)
	}

	k := New(1)
	defer k.Close()
	var stopped, rearmed []time.Duration
	st := NewTimer(k, func() { stopped = append(stopped, k.Now()) })
	rt := NewTimer(k, func() { rearmed = append(rearmed, k.Now()) })
	k.Go("arm", func(p *Proc) {
		st.Reset(time.Millisecond)
		rt.Reset(time.Millisecond)
		p.Sleep(500 * time.Microsecond)
		if !st.Stop() {
			t.Error("Stop of an armed timer reported nothing pending")
		}
		rt.Reset(time.Millisecond) // the first firing at 1 ms goes stale
		p.Sleep(5 * time.Millisecond)
		if st.Stop() || rt.Stop() {
			t.Error("Stop after the timers are done reported a pending firing")
		}
	})
	k.Run(0)
	if len(stopped) != 0 {
		t.Errorf("a stopped timer fired at %v", stopped)
	}
	if len(rearmed) != 1 || rearmed[0] != 1500*time.Microsecond {
		t.Errorf("a re-armed timer fired at %v, want once at 1.5ms", rearmed)
	}
}

func TestSpawnFromProcess(t *testing.T) {
	k := New(1)
	var childRan bool
	k.Go("parent", func(p *Proc) {
		p.Sleep(time.Millisecond)
		k.Go("child", func(c *Proc) {
			c.Sleep(time.Millisecond)
			childRan = true
		})
		p.Sleep(5 * time.Millisecond)
	})
	k.Run(0)
	if !childRan {
		t.Fatal("child process never ran")
	}
}

func TestResourceFIFO(t *testing.T) {
	k := New(1)
	r := NewResource(k, "disk", 1)
	var order []string
	hold := func(name string, delay, svc time.Duration) {
		k.Go(name, func(p *Proc) {
			p.Sleep(delay)
			r.Acquire(p, 1)
			order = append(order, name)
			p.Sleep(svc)
			r.Release(1)
		})
	}
	hold("first", 0, 10*time.Millisecond)
	hold("second", 1*time.Millisecond, time.Millisecond)
	hold("third", 2*time.Millisecond, time.Millisecond)
	k.Run(0)
	want := []string{"first", "second", "third"}
	for i := range want {
		if order[i] != want[i] {
			t.Fatalf("order = %v, want %v", order, want)
		}
	}
}

func TestResourceCountedGrant(t *testing.T) {
	k := New(1)
	r := NewResource(k, "mem", 4)
	var got []time.Duration
	k.Go("big", func(p *Proc) {
		r.Acquire(p, 4)
		p.Sleep(10 * time.Millisecond)
		r.Release(4)
	})
	k.Go("small", func(p *Proc) {
		p.Sleep(time.Millisecond)
		r.Acquire(p, 2)
		got = append(got, p.Now())
		r.Release(2)
	})
	k.Run(0)
	if len(got) != 1 || got[0] != 10*time.Millisecond {
		t.Fatalf("small acquired at %v, want [10ms]", got)
	}
}

func TestResourceStrictFIFONoJump(t *testing.T) {
	// A later small request must not overtake an earlier large one.
	k := New(1)
	r := NewResource(k, "r", 2)
	var order []string
	k.Go("holder", func(p *Proc) {
		r.Acquire(p, 1)
		p.Sleep(10 * time.Millisecond)
		r.Release(1)
	})
	k.Go("large", func(p *Proc) {
		p.Sleep(time.Millisecond)
		r.Acquire(p, 2) // needs holder to release
		order = append(order, "large")
		r.Release(2)
	})
	k.Go("small", func(p *Proc) {
		p.Sleep(2 * time.Millisecond)
		r.Acquire(p, 1) // one unit IS free, but large is queued ahead
		order = append(order, "small")
		r.Release(1)
	})
	k.Run(0)
	if order[0] != "large" || order[1] != "small" {
		t.Fatalf("order = %v, want [large small]", order)
	}
}

func TestResourceUtilization(t *testing.T) {
	k := New(1)
	r := NewResource(k, "u", 2)
	k.Go("w", func(p *Proc) {
		// Each interval is charged with the units held through it, so a
		// use reads back in full right after its release.
		r.Use(p, 1, 600*time.Microsecond)
		if got := r.BusyNanos(); got != 600_000 {
			t.Errorf("a 600µs use of 1 unit reads %d unit-ns after its release, want 600000", got)
		}
		r.Use(p, 2, 200*time.Microsecond)
		if got := r.BusyNanos(); got != 1_000_000 {
			t.Errorf("then a 200µs use of 2 units reads %d unit-ns in all, want 1000000", got)
		}
		p.Sleep(1200 * time.Microsecond)
	})
	k.Run(0)
	// 1 000 of the 2 × 2 000 unit-µs available.
	if u := r.Utilization(); u != 0.25 {
		t.Fatalf("utilization = %v, want 0.25", u)
	}
}

func TestTryAcquire(t *testing.T) {
	k := New(1)
	r := NewResource(k, "t", 1)
	k.Go("p", func(p *Proc) {
		if !r.TryAcquire(1) {
			t.Error("TryAcquire should succeed on free resource")
		}
		if r.TryAcquire(1) {
			t.Error("TryAcquire should fail on exhausted resource")
		}
		r.Release(1)
	})
	k.Run(0)
}

func TestRunResumesPastLimit(t *testing.T) {
	// The event that crosses the limit must stay queued, not be dropped.
	k := New(1)
	defer k.Close()
	var woke time.Duration
	k.Go("sleeper", func(p *Proc) {
		p.Sleep(15 * time.Millisecond)
		woke = p.Now()
	})
	k.Run(10 * time.Millisecond)
	if !k.Halted() || woke != 0 || k.Now() != 10*time.Millisecond {
		t.Fatalf("first Run: halted=%v woke=%v now=%v", k.Halted(), woke, k.Now())
	}
	k.Run(20 * time.Millisecond)
	if woke != 15*time.Millisecond {
		t.Fatalf("sleeper woke at %v on the second Run, want 15ms", woke)
	}
	if k.Halted() {
		t.Fatal("second Run drained the queue but reports halted")
	}
}

// waitGoroutines polls until the goroutine count drops to want: the
// goroutine Close stops a proc on, and Run's driving goroutine, report a
// few instructions before the runtime retires them.
func waitGoroutines(t *testing.T, want int) {
	t.Helper()
	for i := 0; i < 1000 && runtime.NumGoroutine() > want; i++ {
		time.Sleep(time.Millisecond)
	}
	if got := runtime.NumGoroutine(); got > want {
		t.Fatalf("%d goroutines alive, want %d", got, want)
	}
}

func TestCloseUnwindsEveryProc(t *testing.T) {
	base := runtime.NumGoroutine()
	k := New(1)
	res := NewResource(k, "r", 1)
	cond := NewCond(k)
	var unwound []string
	k.Go("ticker", func(p *Proc) {
		defer func() { unwound = append(unwound, "ticker") }()
		for {
			p.Sleep(time.Millisecond)
		}
	})
	k.Go("holder", func(p *Proc) {
		res.Acquire(p, 1)
		defer res.Release(1) // wakes "queued" on a closed kernel: must be harmless
		defer func() { unwound = append(unwound, "holder") }()
		cond.Wait(p)
	})
	k.Go("queued", func(p *Proc) {
		defer func() { unwound = append(unwound, "queued") }()
		res.Acquire(p, 1)
		t.Error("queued acquired the resource after Close")
	})
	k.Go("blocking-defer", func(p *Proc) {
		defer func() { unwound = append(unwound, "blocking-defer") }()
		defer p.Sleep(time.Second) // exits here; the defer above still runs
		defer k.Go("spawned-in-defer", func(*Proc) { t.Error("proc started on a closed kernel") })
		cond.Wait(p)
	})
	k.GoAt(time.Hour, "never-started", func(p *Proc) { t.Error("never-started ran") })
	k.Run(10 * time.Millisecond)
	k.Close()
	k.Close() // idempotent
	want := []string{"ticker", "holder", "queued", "blocking-defer"}
	if fmt.Sprint(unwound) != fmt.Sprint(want) {
		t.Fatalf("unwound %v, want %v (spawn order, one at a time)", unwound, want)
	}
	k.Run(0) // a closed kernel runs nothing
	waitGoroutines(t, base)
}

func TestSleepDoesNotAllocate(t *testing.T) {
	k := New(1)
	defer k.Close()
	var self, handoff float64
	k.Go("alone", func(p *Proc) {
		self = testing.AllocsPerRun(1000, func() { p.Sleep(time.Microsecond) })
		// With a second proc interleaved every Sleep is a handoff.
		k.Go("other", func(o *Proc) {
			for i := 0; i < 3000; i++ {
				o.Sleep(time.Microsecond)
			}
		})
		handoff = testing.AllocsPerRun(1000, func() { p.Sleep(time.Microsecond) })
	})
	k.Run(0)
	if self != 0 || handoff != 0 {
		t.Fatalf("Sleep allocates: %v allocs self-wake, %v allocs handoff, want 0", self, handoff)
	}
}

// A cond that is waited on again and again keeps its waiter array, and
// a timer re-armed and stopped every op allocates nothing either: the
// shapes of a raced read's state reused from one read to the next.
func TestCondAndTimerReuseDoNotAllocate(t *testing.T) {
	k := New(1)
	defer k.Close()
	c := NewCond(k)
	tm := NewTimer(k, func() {})
	var cond, timer float64
	k.Go("waiter", func(p *Proc) {
		for {
			c.Wait(p)
		}
	})
	k.Go("broadcaster", func(p *Proc) {
		cond = testing.AllocsPerRun(1000, func() {
			c.Broadcast()
			p.Sleep(time.Microsecond) // the waiter runs and waits again
		})
		timer = testing.AllocsPerRun(1000, func() {
			tm.Reset(time.Microsecond)
			tm.Stop()
			p.Sleep(2 * time.Microsecond) // the stale firing pops
		})
	})
	k.Run(time.Second)
	if cond != 0 || timer != 0 {
		t.Fatalf("%v allocs per Broadcast+Wait, %v per Reset+Stop, want 0", cond, timer)
	}
}

// A spawned child runs on the coroutine a finished proc gave back, so a
// spawn costs the Proc and what the caller allocates (here the
// WaitGroup, its waiter slot and the closure), not a goroutine.
func TestSpawnExitAllocations(t *testing.T) {
	k := New(1)
	defer k.Close()
	var allocs float64
	k.Go("parent", func(p *Proc) {
		allocs = testing.AllocsPerRun(1000, func() { spawnExit(p) })
	})
	k.Run(0)
	if allocs > 4 {
		t.Fatalf("spawn+exit: %v allocs, want at most 4", allocs)
	}
}

// Finished procs' coroutines are reused rather than piling up, and Close
// ends the idle ones.
func TestCloseEndsIdleWorkers(t *testing.T) {
	base := runtime.NumGoroutine()
	const width = 4
	k := New(1)
	k.Go("parent", func(p *Proc) {
		wg := NewWaitGroup(k)
		for i := 0; i < 1000; i++ {
			wg.Add(1)
			k.Go("child", func(c *Proc) {
				c.Sleep(time.Duration(i%width) * time.Microsecond)
				wg.Done()
			})
			if i%width == width-1 {
				wg.Wait(p)
			}
		}
	})
	k.Run(0)
	if n := k.LiveProcs(); n != 0 {
		t.Fatalf("%d procs live after Run drained the queue", n)
	}
	// The parent and width children ran at once; Run's driving goroutine
	// may not have retired yet.
	if n := runtime.NumGoroutine(); n > base+width+2 {
		t.Fatalf("%d goroutines after 1000 spawns of at most %d procs at a time (%d before)", n, width+1, base)
	}
	k.Close()
	waitGoroutines(t, base)
}

// A proc that bails out via runtime.Goexit ends only the goroutine that
// was driving: Run carries on from a new one, and the bailed-out proc's
// coroutine is not handed to a later spawn.
func TestSpawnAfterGoexitRuns(t *testing.T) {
	k := New(1)
	defer k.Close()
	var done time.Duration
	k.Go("bail", func(p *Proc) {
		p.Sleep(time.Microsecond)
		runtime.Goexit()
	})
	k.Go("spawner", func(p *Proc) {
		p.Sleep(2 * time.Microsecond)
		k.Go("late", func(c *Proc) {
			c.Sleep(time.Microsecond)
			done = c.Now()
		})
	})
	k.Run(0)
	if done != 3*time.Microsecond {
		t.Fatalf("late proc finished at %v, want 3µs", done)
	}
	if n := k.LiveProcs(); n != 0 {
		t.Fatalf("%d procs live after Run drained the queue", n)
	}
}
