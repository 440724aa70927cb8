package sim

import (
	"testing"
	"time"
)

// BenchmarkSleep is the self-wake path: one proc, every wake-up is its own.
func BenchmarkSleep(b *testing.B) {
	b.ReportAllocs()
	k := New(1)
	defer k.Close()
	k.Go("sleeper", func(p *Proc) {
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			p.Sleep(time.Microsecond)
		}
	})
	k.Run(0)
}

// BenchmarkPingPong bounces a token between two procs over two Chans: one
// direct handoff per hop, two hops per op.
func BenchmarkPingPong(b *testing.B) {
	b.ReportAllocs()
	k := New(1)
	defer k.Close()
	ping, pong := NewChan[int](k), NewChan[int](k)
	k.Go("ponger", func(p *Proc) {
		for {
			v, ok := ping.Recv(p)
			if !ok {
				return
			}
			pong.Send(v)
		}
	})
	k.Go("pinger", func(p *Proc) {
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			ping.Send(i)
			pong.Recv(p)
		}
		ping.Close()
	})
	k.Run(0)
}

// BenchmarkHandoff80Procs is the closed-loop client shape of the range
// scan workloads: 80 procs sleeping staggered intervals, so nearly every
// wake-up belongs to another proc and the heap holds 80 events. One op is
// one Sleep.
func BenchmarkHandoff80Procs(b *testing.B) {
	b.ReportAllocs()
	const procs = 80
	k := New(1)
	defer k.Close()
	b.ResetTimer()
	for c := 0; c < procs; c++ {
		n := b.N / procs
		if c < b.N%procs {
			n++
		}
		d := time.Duration(100+c) * time.Microsecond
		k.Go("client", func(p *Proc) {
			for i := 0; i < n; i++ {
				p.Sleep(d)
			}
		})
	}
	k.Run(0)
}

// spawnExit is one request's child in the shape of disk.FanOut: a fresh
// WaitGroup, one child that sleeps once, and a wait for it.
func spawnExit(p *Proc) {
	wg := NewWaitGroup(p.k)
	wg.Add(1)
	p.k.Go("child", func(c *Proc) {
		c.Sleep(time.Microsecond)
		wg.Done()
	})
	wg.Wait(p)
}

// BenchmarkSpawnExit is the per-request child of disk.FanOut,
// core.raceFrame and ReadVWithin. One op is one spawnExit; each child
// runs on the coroutine the previous one gave back.
func BenchmarkSpawnExit(b *testing.B) {
	b.ReportAllocs()
	k := New(1)
	defer k.Close()
	k.Go("parent", func(p *Proc) {
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			spawnExit(p)
		}
	})
	k.Run(0)
}

// BenchmarkTimerResetStop is a raced read's hedge timer: armed, stopped
// before it is due, and its stale event popped later. One op is one
// Reset, one Stop and one Sleep past the stale firing.
func BenchmarkTimerResetStop(b *testing.B) {
	b.ReportAllocs()
	k := New(1)
	defer k.Close()
	tm := NewTimer(k, func() { b.Error("a stopped timer fired") })
	k.Go("racer", func(p *Proc) {
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			tm.Reset(time.Microsecond)
			tm.Stop()
			p.Sleep(2 * time.Microsecond)
		}
	})
	k.Run(0)
}

// BenchmarkResourceAcquire is a contended device: four procs take turns on
// a one-unit Resource, so nearly every Acquire queues behind the others.
// One op is one Use: an Acquire, a Sleep holding the unit and a Release.
func BenchmarkResourceAcquire(b *testing.B) {
	b.ReportAllocs()
	const procs = 4
	k := New(1)
	defer k.Close()
	r := NewResource(k, "dev", 1)
	users := func(ops int) {
		for c := 0; c < procs; c++ {
			n := ops / procs
			if c < ops%procs {
				n++
			}
			k.Go("user", func(p *Proc) {
				for i := 0; i < n; i++ {
					r.Use(p, 1, time.Microsecond)
				}
			})
		}
		k.Run(0)
	}
	users(2 * procs) // warm: the queue and its spare waiters are grown
	b.ResetTimer()
	users(b.N)
}
