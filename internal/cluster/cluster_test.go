package cluster

import (
	"testing"
	"time"

	"remotedb/internal/sim"
)

func smallConfig() Config {
	cfg := DefaultConfig()
	cfg.Cores = 4
	cfg.MemoryBytes = 1 << 20
	return cfg
}

func TestWorkChargesExactTime(t *testing.T) {
	k := newKernel(t, 1)
	s := NewServer(k, "s1", smallConfig())
	var end time.Duration
	k.Go("w", func(p *sim.Proc) {
		s.Work(p, time.Millisecond)
		end = p.Now()
		// The core-time is read back in full as soon as the work ends.
		if busy := time.Duration(s.CPUBusyNanos()); busy != time.Millisecond {
			t.Errorf("1ms of work reads %v of core-time after it", busy)
		}
	})
	k.Run(0)
	if end != time.Millisecond {
		t.Fatalf("end = %v, want 1ms (idle CPU)", end)
	}
}

func TestWorkQuantumSharing(t *testing.T) {
	// 8 workers on 4 cores: total work 8ms => finish at ~2ms, and the
	// quantum discipline means no worker finishes before ~1.8ms.
	k := newKernel(t, 1)
	s := NewServer(k, "s1", smallConfig())
	var first, last time.Duration
	done := 0
	for i := 0; i < 8; i++ {
		k.Go("w", func(p *sim.Proc) {
			s.Work(p, time.Millisecond)
			if done == 0 {
				first = p.Now()
			}
			done++
			last = p.Now()
		})
	}
	k.Run(0)
	if last != 2*time.Millisecond {
		t.Fatalf("last = %v, want 2ms", last)
	}
	if first < 1700*time.Microsecond {
		t.Fatalf("first = %v; quantum slicing should interleave workers", first)
	}
}

func TestShortWorkNotStarvedBehindLongBursts(t *testing.T) {
	// With all cores busy running long bursts, a short 50µs task should
	// still get in within roughly a quantum, not after a full burst.
	cfg := smallConfig()
	cfg.Cores = 1
	k := newKernel(t, 1)
	s := NewServer(k, "s1", cfg)
	k.Go("long", func(p *sim.Proc) { s.Work(p, 10*time.Millisecond) })
	var shortDone time.Duration
	k.Go("short", func(p *sim.Proc) {
		p.Sleep(10 * time.Microsecond)
		s.Work(p, 50*time.Microsecond)
		shortDone = p.Now()
	})
	k.Run(0)
	if shortDone > 500*time.Microsecond {
		t.Fatalf("short task done at %v; quantum slicing should bound the wait", shortDone)
	}
}

func TestExecHoldsCore(t *testing.T) {
	cfg := smallConfig()
	cfg.Cores = 1
	k := newKernel(t, 1)
	s := NewServer(k, "s1", cfg)
	var otherStart time.Duration
	k.Go("spinner", func(p *sim.Proc) {
		s.Exec(p, func() { p.Sleep(time.Millisecond) }) // spin 1ms holding the core
	})
	k.Go("other", func(p *sim.Proc) {
		p.Sleep(10 * time.Microsecond)
		s.Work(p, 10*time.Microsecond)
		otherStart = p.Now()
	})
	k.Run(0)
	if otherStart < time.Millisecond {
		t.Fatalf("other ran at %v; Exec must hold the core without preemption", otherStart)
	}
}

func TestMemoryAccounting(t *testing.T) {
	k := newKernel(t, 1)
	s := NewServer(k, "s1", smallConfig()) // 1 MiB
	if err := s.CommitLocal(512 << 10); err != nil {
		t.Fatal(err)
	}
	if err := s.PinBrokered(256 << 10); err != nil {
		t.Fatal(err)
	}
	if free := s.MemoryFree(); free != 256<<10 {
		t.Fatalf("free = %d, want 256K", free)
	}
	if err := s.PinBrokered(512 << 10); err == nil {
		t.Fatal("pin beyond free should fail")
	}
	s.UnpinBrokered(256 << 10)
	s.ReleaseLocal(512 << 10)
	if s.MemoryFree() != 1<<20 {
		t.Fatalf("free = %d after releases", s.MemoryFree())
	}
}

func TestMemoryPressureNotification(t *testing.T) {
	k := newKernel(t, 1)
	s := NewServer(k, "s1", smallConfig())
	if err := s.PinBrokered(768 << 10); err != nil {
		t.Fatal(err)
	}
	var asked int64
	s.OnMemoryPressure(func(need int64) {
		asked = need
		s.UnpinBrokered(need) // proxy gives memory back
	})
	if err := s.CommitLocal(512 << 10); err != nil {
		t.Fatalf("commit should succeed after pressure release: %v", err)
	}
	if asked != 256<<10 {
		t.Fatalf("shortfall = %d, want 256K", asked)
	}
}

func TestCommitFailsWhenPressureUnanswered(t *testing.T) {
	k := newKernel(t, 1)
	s := NewServer(k, "s1", smallConfig())
	if err := s.PinBrokered(1 << 20); err != nil {
		t.Fatal(err)
	}
	if err := s.CommitLocal(1); err == nil {
		t.Fatal("commit should fail with all memory pinned and no subscriber")
	}
}

func TestClusterLookup(t *testing.T) {
	k := newKernel(t, 1)
	c := New(k)
	s1 := c.AddServer("db1", smallConfig())
	if c.Server("db1") != s1 {
		t.Fatal("lookup failed")
	}
	if c.Server("nope") != nil {
		t.Fatal("missing server should be nil")
	}
}

func TestRescheduleCost(t *testing.T) {
	k := newKernel(t, 1)
	s := NewServer(k, "s1", smallConfig())
	var end time.Duration
	k.Go("p", func(p *sim.Proc) {
		s.Reschedule(p)
		end = p.Now()
	})
	k.Run(0)
	if end != s.Cfg.CtxSwitch {
		t.Fatalf("reschedule took %v, want %v", end, s.Cfg.CtxSwitch)
	}
}
