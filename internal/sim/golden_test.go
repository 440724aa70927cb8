package sim

import (
	"flag"
	"fmt"
	"os"
	"runtime"
	"strings"
	"testing"
	"time"
)

var updateGolden = flag.Bool("update-golden", false, "rewrite testdata/golden_order.txt from this kernel")

const goldenFile = "testdata/golden_order.txt"

// goldenScenario drives every primitive through contended, same-timestamp
// situations and returns the (now, name) sequence in which procs and
// callbacks observed the baton. The committed expectation was recorded on
// the channel-bounce kernel this one replaced, so any reordering of
// equal-time events, a moved k.seq++, or a callback run at the wrong
// point of the dispatch loop shows up as a diff.
func goldenScenario() []string {
	k := New(7)
	defer k.Close()
	var order []string
	rec := func(name string) { order = append(order, fmt.Sprintf("%d %s", k.now, name)) }
	us := func(n int) time.Duration { return time.Duration(n) * time.Microsecond }

	// Sleep(0) yields and equal-timestamp wake-ups.
	for i := 0; i < 3; i++ {
		name := fmt.Sprintf("yield%d", i)
		k.Go(name, func(p *Proc) {
			for j := 0; j < 3; j++ {
				rec(name)
				p.Yield()
			}
			p.Sleep(us(5))
			rec(name + ".5us")
			p.SleepUntil(us(3)) // in the past: clamps to now, still yields
			rec(name + ".past")
		})
	}

	// A counted FIFO resource under contention, with random service times.
	res := NewResource(k, "res", 2)
	for i := 0; i < 5; i++ {
		name := fmt.Sprintf("res%d", i)
		n := 1 + i%2
		k.Go(name, func(p *Proc) {
			for j := 0; j < 3; j++ {
				res.Acquire(p, n)
				rec(name + ".got")
				p.Sleep(us(1 + p.Rand().Intn(4)))
				res.Release(n)
				rec(name + ".rel")
			}
		})
	}

	// Cond: signalled one at a time, broadcast, and woken from callbacks.
	cond := NewCond(k)
	for i := 0; i < 4; i++ {
		name := fmt.Sprintf("cw%d", i)
		k.Go(name, func(p *Proc) {
			for j := 0; j < 3; j++ {
				cond.Wait(p)
				rec(name)
			}
		})
	}
	k.Go("signaller", func(p *Proc) {
		p.Sleep(us(2))
		cond.Signal()
		cond.Signal()
		rec("signalled2")
		p.Sleep(us(2))
		cond.Broadcast()
		rec("broadcast")
	})
	k.After(us(9), func() {
		rec("after9")
		cond.Broadcast()
		k.After(0, func() { rec("after9.nested0") })
		k.After(us(1), func() {
			rec("after10")
			cond.Signal()
		})
		k.Go("spawned-by-after", func(p *Proc) {
			rec("spawned-by-after")
			p.Sleep(us(1))
			rec("spawned-by-after.1us")
		})
	})
	k.After(us(9), func() { rec("after9.second") })

	// Chan: two consumers, a bursty producer, close.
	ch := NewChan[int](k)
	for i := 0; i < 2; i++ {
		name := fmt.Sprintf("recv%d", i)
		k.Go(name, func(p *Proc) {
			for {
				v, ok := ch.Recv(p)
				if !ok {
					rec(name + ".closed")
					return
				}
				rec(fmt.Sprintf("%s.%d", name, v))
				p.Sleep(us(v % 3))
			}
		})
	}
	k.Go("producer", func(p *Proc) {
		for v := 0; v < 8; v++ {
			ch.Send(v)
			if v%3 == 2 {
				p.Sleep(us(2))
			}
		}
		ch.Close()
		rec("producer.closed")
	})

	// WaitGroup: children finishing at the same instant as their parent's
	// other wake-ups, and a child spawned from a running proc.
	wg := NewWaitGroup(k)
	k.Go("parent", func(p *Proc) {
		for i := 0; i < 3; i++ {
			wg.Add(1)
			name := fmt.Sprintf("child%d", i)
			d := us(4 - i)
			k.Go(name, func(c *Proc) {
				defer wg.Done()
				c.Sleep(d)
				rec(name)
			})
		}
		rec("parent.spawned")
		wg.Wait(p)
		rec("parent.joined")
		wg.Wait(p) // already zero: does not yield
		rec("parent.joined-again")
	})

	// GoAt in the future, at an occupied timestamp, and in the past.
	k.GoAt(us(4), "goat4", func(p *Proc) { rec("goat4") })
	k.GoAt(us(9), "goat9", func(p *Proc) {
		rec("goat9")
		k.GoAt(us(1), "goat-past", func(p *Proc) { rec("goat-past") })
		p.Yield()
		rec("goat9.yielded")
	})

	// A proc that exits while others are parked, one that bails out via
	// Goexit (t.Fatal's mechanism) with deferred wake-ups, and one parked
	// for good.
	gate := NewResource(k, "gate", 1)
	k.Go("early-exit", func(p *Proc) { rec("early-exit") })
	k.Go("goexit", func(p *Proc) {
		gate.Acquire(p, 1)
		defer func() {
			rec("goexit.deferred")
			gate.Release(1)
			cond.Signal()
		}()
		p.Sleep(us(6))
		rec("goexit.bail")
		runtime.Goexit()
		rec("goexit.unreachable")
	})
	k.Go("gate-waiter", func(p *Proc) {
		p.Sleep(us(1))
		gate.Acquire(p, 1)
		rec("gate-waiter.got")
		gate.Release(1)
	})
	never := NewCond(k)
	k.Go("parked-forever", func(p *Proc) {
		rec("parked-forever")
		never.Wait(p)
		rec("parked-forever.unreachable")
	})

	// A ticker that outlives the limit.
	k.Go("ticker", func(p *Proc) {
		for {
			p.Sleep(us(7))
			rec("tick")
		}
	})

	k.Run(us(40))
	rec(fmt.Sprintf("halted=%v", k.Halted()))
	return order
}

func TestGoldenEventOrder(t *testing.T) {
	got := strings.Join(goldenScenario(), "\n") + "\n"
	if *updateGolden {
		if err := os.WriteFile(goldenFile, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(goldenFile)
	if err != nil {
		t.Fatal(err)
	}
	if got != string(want) {
		gl, wl := strings.Split(got, "\n"), strings.Split(string(want), "\n")
		for i := range gl {
			if i >= len(wl) || gl[i] != wl[i] {
				w := "<end>"
				if i < len(wl) {
					w = wl[i]
				}
				t.Fatalf("event %d: got %q, want %q (%d vs %d events)", i, gl[i], w, len(gl), len(wl))
			}
		}
		t.Fatalf("got %d events, want %d", len(gl), len(wl))
	}
}
