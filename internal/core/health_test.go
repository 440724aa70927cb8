package core

import (
	"bytes"
	"testing"
	"time"

	"remotedb/internal/fault"
	"remotedb/internal/sim"
)

// slowServer returns the donor server owning replica r of stripe 0 of f.
func donorOf(t *testing.T, e *env, f *File, r int) int {
	t.Helper()
	name := f.leases[0][r].MR.Owner.Name
	for i, m := range e.mems {
		if m.Name == name {
			return i
		}
	}
	t.Fatalf("donor %q not found", name)
	return -1
}

func TestDeadlineBudgetSlowReadFallsBack(t *testing.T) {
	k := newKernel(t, 1)
	k.Go("t", func(p *sim.Proc) {
		cfg := DefaultConfig()
		cfg.DeadlineBudget = 500 * time.Microsecond
		e := newEnv(p, 2, 8, cfg)
		f, _ := e.fs.Create(p, "f", 1<<20)
		f.OpenConn(p)
		data := bytes.Repeat([]byte{7}, 8192)
		if err := f.WriteAt(p, data, 0); err != nil {
			t.Error(err)
			return
		}
		// Every donor of this file crawls: reads must give up at the
		// budget, not ride out the 50 ms stall.
		for _, m := range e.mems {
			m.SetServiceDelay(50 * time.Millisecond)
		}
		got := make([]byte, 8192)
		start := p.Now()
		err := f.ReadAt(p, got, 0)
		if !fault.Slow(err) {
			t.Errorf("want ErrSlow, got %v", err)
		}
		if !fault.Retryable(err) {
			t.Error("ErrSlow must classify as retryable")
		}
		if el := p.Now() - start; el > 5*time.Millisecond {
			t.Errorf("slow read held the caller %v, budget was 500us", el)
		}
		if e.fs.Client.DeadlineMisses == 0 {
			t.Error("DeadlineMisses not counted")
		}
		// Donor recovers: the same read succeeds again.
		for _, m := range e.mems {
			m.SetServiceDelay(0)
		}
		if err := f.ReadAt(p, got, 0); err != nil {
			t.Errorf("read after recovery: %v", err)
		}
		if !bytes.Equal(data, got) {
			t.Error("round trip corrupted")
		}
	})
	k.Run(time.Minute)
}

func TestDeadlineBudgetFramedRead(t *testing.T) {
	k := newKernel(t, 1)
	k.Go("t", func(p *sim.Proc) {
		cfg := DefaultConfig()
		cfg.Integrity = true
		cfg.DeadlineBudget = 500 * time.Microsecond
		e := newEnv(p, 2, 8, cfg)
		f, _ := e.fs.Create(p, "f", 1<<20)
		f.OpenConn(p)
		data := bytes.Repeat([]byte{9}, 8192)
		if err := f.WriteAt(p, data, 0); err != nil {
			t.Error(err)
			return
		}
		for _, m := range e.mems {
			m.SetServiceDelay(50 * time.Millisecond)
		}
		got := make([]byte, 8192)
		err := f.ReadAt(p, got, 0)
		if !fault.Slow(err) {
			t.Errorf("want ErrSlow, got %v", err)
		}
		if e.fs.SlowReads == 0 {
			t.Error("SlowReads not counted")
		}
		for _, m := range e.mems {
			m.SetServiceDelay(0)
		}
		if err := f.ReadAt(p, got, 0); err != nil {
			t.Errorf("read after recovery: %v", err)
		}
		if !bytes.Equal(data, got) {
			t.Error("round trip corrupted")
		}
	})
	k.Run(time.Minute)
}

func TestHedgedReadCutsTail(t *testing.T) {
	k := newKernel(t, 1)
	k.Go("t", func(p *sim.Proc) {
		cfg := DefaultConfig()
		cfg.Replication = 2
		cfg.Hedging = true
		cfg.HedgeAfter = 200 * time.Microsecond
		cfg.HedgeRateCap = 1 // mechanics under test, not the cap
		e := newEnv(p, 4, 8, cfg)
		f, _ := e.fs.Create(p, "f", 1<<20)
		f.OpenConn(p)
		data := bytes.Repeat([]byte{3}, 8192)
		if err := f.WriteAt(p, data, 0); err != nil {
			t.Error(err)
			return
		}
		// Only the primary replica's donor is slow; the hedge should
		// finish the read at roughly the hedge threshold, not the stall.
		stall := 20 * time.Millisecond
		e.mems[donorOf(t, e, f, 0)].SetServiceDelay(stall)
		got := make([]byte, 8192)
		start := p.Now()
		if err := f.ReadAt(p, got, 0); err != nil {
			t.Errorf("hedged read: %v", err)
			return
		}
		el := p.Now() - start
		if el >= stall {
			t.Errorf("read took %v, hedge should have cut the %v stall", el, stall)
		}
		if !bytes.Equal(data, got) {
			t.Error("round trip corrupted")
		}
		if e.fs.HedgedReads == 0 || e.fs.HedgeWins == 0 {
			t.Errorf("hedge counters: fired=%d won=%d", e.fs.HedgedReads, e.fs.HedgeWins)
		}
	})
	k.Run(time.Minute)
}

func TestHedgeRateCap(t *testing.T) {
	k := newKernel(t, 1)
	k.Go("t", func(p *sim.Proc) {
		cfg := DefaultConfig()
		cfg.Replication = 2
		cfg.Hedging = true
		cfg.HedgeAfter = 100 * time.Microsecond
		cfg.HedgeRateCap = 0.05
		e := newEnv(p, 4, 8, cfg)
		f, _ := e.fs.Create(p, "f", 1<<20)
		f.OpenConn(p)
		data := bytes.Repeat([]byte{1}, 8192)
		f.WriteAt(p, data, 0)
		// Every donor is mildly slow, so every read would like to
		// hedge; the cap must keep hedge volume at ~5%.
		for _, m := range e.mems {
			m.SetServiceDelay(300 * time.Microsecond)
		}
		got := make([]byte, 8192)
		for i := 0; i < 200; i++ {
			if err := f.ReadAt(p, got, 0); err != nil {
				t.Errorf("read %d: %v", i, err)
				return
			}
		}
		maxHedges := int64(0.05*float64(e.fs.TolerantReads)) + 1
		if e.fs.HedgedReads > maxHedges {
			t.Errorf("hedges %d exceed cap (%d of %d tolerant reads)",
				e.fs.HedgedReads, maxHedges, e.fs.TolerantReads)
		}
		if e.fs.HedgedReads == 0 {
			t.Error("cap strangled hedging entirely")
		}
	})
	k.Run(time.Minute)
}

// healthEnv builds the standard health rig: a multi-stripe file spread
// over 4 donors, the fleet baseline warmed with fast reads of a stripe
// that avoids the stripe-0 primary donor, and that donor's index
// returned for slowing.
func healthEnv(t *testing.T, p *sim.Proc, cfg Config) (*env, *File, int, []byte) {
	t.Helper()
	cfg.Replication = 2
	cfg.HealthChecks = true
	cfg.HeartbeatEvery = 2 * time.Millisecond
	e := newEnv(p, 4, 8, cfg)
	f, err := e.fs.Create(p, "f", 2<<20)
	if err != nil {
		t.Fatal(err)
	}
	f.OpenConn(p)
	slow := donorOf(t, e, f, 0)
	slowName := e.mems[slow].Name
	// Find a stripe that does not touch the to-be-slowed donor: reads
	// of it keep feeding the fleet baseline honest, fast samples.
	warm := -1
	for s := 1; s < len(f.leases) && warm < 0; s++ {
		onSlow := false
		for _, l := range f.leases[s] {
			if l.MR.Owner.Name == slowName {
				onSlow = true
			}
		}
		if !onSlow {
			warm = s
		}
	}
	if warm < 0 {
		t.Fatalf("no stripe avoids donor %q; placement changed", slowName)
	}
	lo, _ := f.stripeBlockRange(warm)
	warmOff := lo * BlockSize
	data := bytes.Repeat([]byte{5}, 8192)
	f.WriteAt(p, data, 0) // stripe 0, primary on the slow donor
	f.WriteAt(p, data, warmOff)
	// Warm the fleet median (and the fast donors' scores) well past
	// healthMinSamples before anything slows down.
	got := make([]byte, 8192)
	for i := 0; i < 10; i++ {
		if err := f.ReadAt(p, got, warmOff); err != nil {
			t.Fatalf("warm read %d: %v", i, err)
		}
	}
	return e, f, slow, data
}

func TestBrownoutAndRecovery(t *testing.T) {
	k := newKernel(t, 1)
	k.Go("t", func(p *sim.Proc) {
		e, f, slow, _ := healthEnv(t, p, DefaultConfig())
		slowName := e.mems[slow].Name
		// A RDMA read of one block is ~5us here; +30us lands the donor
		// in the brownout band (>=3x the fleet median) without crossing
		// the 8x quarantine threshold.
		stall := 30 * time.Microsecond
		e.mems[slow].SetServiceDelay(stall)
		got := make([]byte, 8192)
		for i := 0; i < 40 && e.fs.Brownouts == 0; i++ {
			if err := f.ReadAt(p, got, 0); err != nil {
				t.Errorf("read %d: %v", i, err)
				return
			}
		}
		if e.fs.Brownouts == 0 {
			t.Error("slow donor never browned out")
			return
		}
		if !e.fs.health.avoidSet()[slowName] {
			t.Errorf("browned donor %q missing from avoid set %v", slowName, e.fs.health.slowDonors())
		}
		// Browned-out: stripe-0 reads prefer the healthy replica now.
		before := p.Now()
		n := 0
		for i := 0; i < 20; i++ {
			f.ReadAt(p, got, 0)
			n++
		}
		if per := (p.Now() - before) / time.Duration(n); per >= stall {
			t.Errorf("reads still riding the slow donor: %v each", per)
		}
		if e.fs.Quarantines != 0 {
			t.Errorf("brownout-band stall escalated to quarantine (%d)", e.fs.Quarantines)
		}
		// Donor recovers; probes must close the breaker.
		e.mems[slow].SetServiceDelay(0)
		for i := 0; i < 300 && e.fs.HealthRecoveries == 0; i++ {
			f.ReadAt(p, got, 0)
			p.Sleep(time.Millisecond)
		}
		if e.fs.HealthRecoveries == 0 {
			t.Errorf("donor never recovered (probes=%d)", e.fs.HealthProbes)
		}
		if e.fs.HealthProbes == 0 {
			t.Error("no probe reads routed to the unhealthy donor")
		}
		if len(e.fs.health.slowDonors()) != 0 {
			t.Errorf("avoid set not cleared: %v", e.fs.health.slowDonors())
		}
	})
	k.Run(time.Minute)
}

func TestQuarantineMigratesReplicas(t *testing.T) {
	k := newKernel(t, 1)
	k.Go("t", func(p *sim.Proc) {
		e, f, slow, data := healthEnv(t, p, DefaultConfig())
		slowName := e.mems[slow].Name
		// Far past the quarantine threshold.
		e.mems[slow].SetServiceDelay(20 * time.Millisecond)
		got := make([]byte, 8192)
		for i := 0; i < 60 && e.fs.Quarantines == 0; i++ {
			if err := f.ReadAt(p, got, 0); err != nil {
				t.Errorf("read %d: %v", i, err)
				return
			}
		}
		if e.fs.Quarantines == 0 {
			t.Error("slow donor never quarantined")
			return
		}
		if e.fs.ProactiveMigrations == 0 {
			t.Error("quarantine did not trigger migration")
			return
		}
		// Let the background rebuilds land, then confirm the donor no
		// longer backs the file and data survived the move.
		p.Sleep(100 * time.Millisecond)
		for _, srv := range f.Servers() {
			if srv == slowName {
				t.Errorf("replica still on quarantined donor %q: %v", slowName, f.Servers())
			}
		}
		if err := f.ReadAt(p, got, 0); err != nil {
			t.Errorf("read after migration: %v", err)
		}
		if !bytes.Equal(data, got) {
			t.Error("data lost in migration")
		}
	})
	k.Run(time.Minute)
}

func TestBreakerEscalatesBrownedToQuarantined(t *testing.T) {
	k := newKernel(t, 1)
	k.Go("t", func(p *sim.Proc) {
		cfg := DefaultConfig()
		cfg.HealthChecks = true
		e := newEnv(p, 2, 8, cfg)
		h := e.fs.health
		// Synthetic samples: warm the fleet with a fast donor, then
		// degrade "bad" in two steps.
		for i := 0; i < 20; i++ {
			h.observe("good", 100*time.Microsecond, false, p.Now())
		}
		for i := 0; i < 20; i++ {
			h.observe("bad", 500*time.Microsecond, false, p.Now())
		}
		if got := h.stateOf("bad"); got != donorBrowned {
			t.Errorf("after 5x samples: state %v, want browned-out", got)
		}
		// A browned-out donor that starts failing outright escalates.
		for i := 0; i < 10; i++ {
			h.observe("bad", 0, true, p.Now())
		}
		if got := h.stateOf("bad"); got != donorQuarantined {
			t.Errorf("after failures: state %v, want quarantined", got)
		}
		if e.fs.Brownouts != 1 || e.fs.Quarantines != 1 {
			t.Errorf("counters: brownouts=%d quarantines=%d", e.fs.Brownouts, e.fs.Quarantines)
		}
		// Recovery: consecutive good probes close the breaker once the
		// error EWMA has decayed back under the recovery threshold.
		for i := 0; i < 15 && h.stateOf("bad") != donorHealthy; i++ {
			h.observe("bad", 100*time.Microsecond, false, p.Now())
		}
		if got := h.stateOf("bad"); got != donorHealthy {
			t.Errorf("after good probes: state %v, want healthy", got)
		}
		if e.fs.HealthRecoveries != 1 {
			t.Errorf("recoveries: %d", e.fs.HealthRecoveries)
		}
	})
	k.Run(time.Minute)
}

func TestTailTolerantPathOffByDefault(t *testing.T) {
	k := newKernel(t, 1)
	k.Go("t", func(p *sim.Proc) {
		cfg := DefaultConfig()
		cfg.Replication = 2
		e := newEnv(p, 4, 8, cfg)
		f, _ := e.fs.Create(p, "f", 1<<20)
		f.OpenConn(p)
		data := bytes.Repeat([]byte{4}, 8192)
		f.WriteAt(p, data, 0)
		got := make([]byte, 8192)
		if err := f.ReadAt(p, got, 0); err != nil {
			t.Error(err)
		}
		if e.fs.TolerantReads != 0 {
			t.Errorf("tolerant path ran with all knobs off (%d reads)", e.fs.TolerantReads)
		}
		// A proc-level deadline alone opts the read in.
		p.SetDeadline(p.Now() + time.Second)
		if err := f.ReadAt(p, got, 0); err != nil {
			t.Error(err)
		}
		p.SetDeadline(0)
		if e.fs.TolerantReads == 0 {
			t.Error("proc deadline did not engage the tolerant path")
		}
	})
	k.Run(time.Minute)
}
