package broker

import (
	"errors"
	"testing"
	"time"

	"remotedb/internal/broker/metastore"
	"remotedb/internal/fault"
	"remotedb/internal/sim"
)

// faultHarness is like harness but with one donor, a configurable lease
// TTL and the metastore handle exposed, for the clock-driven lease-race
// tests.
func faultHarness(t *testing.T, ttl time.Duration, mrs int,
	fn func(p *sim.Proc, c *Cluster, store *metastore.Store)) {
	t.Helper()
	k := newKernel(t, 1)
	m := testServer(k, "m1")
	k.Go("test", func(p *sim.Proc) {
		store := metastore.New(k, 10*time.Microsecond)
		c := NewCluster(p, store, 1, Config{LeaseTTL: ttl})
		if _, err := c.AddProxy(p, m, 1<<20, mrs); err != nil {
			t.Error(err)
			return
		}
		fn(p, c, store)
	})
	k.Run(0)
}

// A holder that stops renewing and comes back after the TTL must get a
// classified revocation error, not a silent success.
func TestRenewAfterExpire(t *testing.T) {
	faultHarness(t, 100*time.Millisecond, 4, func(p *sim.Proc, c *Cluster, store *metastore.Store) {
		leases, err := c.Request(p, RequestSpec{Holder: "db1", N: 1, Place: PlacePack})
		if err != nil {
			t.Fatal(err)
		}
		l := leases[0]
		p.Sleep(150 * time.Millisecond) // past ExpiresAt, before any sweep
		if l.Valid(p.Now()) {
			t.Fatal("lease should have expired")
		}
		err = c.Renew(p, l)
		if !errors.Is(err, ErrLeaseExpired) {
			t.Errorf("renew after expiry: %v, want ErrLeaseExpired", err)
		}
		if !errors.Is(err, fault.ErrRevoked) {
			t.Errorf("expiry error not classified ErrRevoked: %v", err)
		}
	})
}

// A revocation landing while a renewal RPC is in flight must win: the
// renewal returns, but the lease stays dead.
func TestRevokeDuringRenew(t *testing.T) {
	faultHarness(t, 100*time.Millisecond, 4, func(p *sim.Proc, c *Cluster, store *metastore.Store) {
		leases, err := c.Request(p, RequestSpec{Holder: "db1", N: 1, Place: PlacePack})
		if err != nil {
			t.Fatal(err)
		}
		l := leases[0]
		// The renewal below charges a metastore RPC (10 µs); fire the
		// revocation into the middle of that window.
		p.Kernel().GoAt(p.Now()+5*time.Microsecond, "revoker", func(rp *sim.Proc) {
			c.Revoke(l.ID)
		})
		renewErr := c.Renew(p, l)
		if l.Valid(p.Now()) {
			t.Errorf("lease valid after mid-renew revocation (renew err: %v)", renewErr)
		}
		// Whatever the renew returned, the next renewal must classify.
		if err := c.Renew(p, l); !errors.Is(err, fault.ErrRevoked) {
			t.Errorf("renew of revoked lease: %v, not classified ErrRevoked", err)
		}
	})
}

// The expiry sweep must fire within one cadence of expiry — no earlier
// than ExpiresAt, no later than ExpiresAt + interval — and must stop
// when asked so the simulation can drain.
func TestSweepCadence(t *testing.T) {
	const ttl = 100 * time.Millisecond
	const sweep = 30 * time.Millisecond
	faultHarness(t, ttl, 4, func(p *sim.Proc, c *Cluster, store *metastore.Store) {
		p.Kernel().Go("sweep", func(sp *sim.Proc) { c.ExpireLoop(sp, sweep) })
		leases, err := c.Request(p, RequestSpec{Holder: "db1", N: 1, Place: PlacePack})
		if err != nil {
			t.Fatal(err)
		}
		l := leases[0]
		granted := p.Now()
		// Just before expiry: the sweep must not have touched it.
		p.SleepUntil(granted + ttl - time.Millisecond)
		if !l.Valid(p.Now()) || c.Expirations() != 0 {
			t.Fatalf("lease dead before TTL (expirations=%d)", c.Expirations())
		}
		// One sweep interval past expiry: it must be gone.
		p.SleepUntil(granted + ttl + sweep + time.Millisecond)
		if l.Valid(p.Now()) {
			t.Error("lease still valid one sweep past expiry")
		}
		if c.Expirations() != 1 {
			t.Errorf("expirations = %d, want 1", c.Expirations())
		}
		c.StopExpireLoop() // k.Run(0) hangs forever if this doesn't work
	})
}

// A grant whose metastore persist fails must roll back completely: no
// lease recorded, no MR leaked, and the error names the partition (not
// exhausted memory) and is classified retryable.
func TestRequestRollsBackOnPersistFailure(t *testing.T) {
	faultHarness(t, time.Second, 4, func(p *sim.Proc, c *Cluster, store *metastore.Store) {
		free := c.FreeMRs()
		store.SetPartitioned(true)
		_, err := c.Request(p, RequestSpec{Holder: "db1", N: 2, Place: PlacePack})
		if !errors.Is(err, metastore.ErrPartitioned) {
			t.Errorf("request while partitioned: %v, want metastore.ErrPartitioned", err)
		}
		if !fault.Retryable(err) {
			t.Errorf("partition error not retryable: %v", err)
		}
		if c.ActiveLeases() != 0 || c.FreeMRs() != free {
			t.Errorf("leak after failed grant: active=%d free=%d want 0/%d",
				c.ActiveLeases(), c.FreeMRs(), free)
		}
		store.SetPartitioned(false)
		if _, err := c.Request(p, RequestSpec{Holder: "db1", N: 2, Place: PlacePack}); err != nil {
			t.Errorf("request after heal: %v", err)
		}
	})
}

// RevokeOldest must pick victims deterministically: lowest lease IDs
// first.
func TestRevokeOldestIsDeterministic(t *testing.T) {
	faultHarness(t, time.Second, 8, func(p *sim.Proc, c *Cluster, store *metastore.Store) {
		leases, err := c.Request(p, RequestSpec{Holder: "db1", N: 4, Place: PlacePack})
		if err != nil {
			t.Fatal(err)
		}
		if got := c.RevokeOldest(2); got != 2 {
			t.Fatalf("revoked %d, want 2", got)
		}
		now := p.Now()
		for i, l := range leases {
			want := i >= 2 // the two oldest die, the two newest survive
			if l.Valid(now) != want {
				t.Errorf("lease %d (id %d): valid=%v want %v", i, l.ID, l.Valid(now), want)
			}
		}
	})
}
