package broker

import (
	"errors"
	"testing"
	"time"

	"remotedb/internal/broker/metastore"
	"remotedb/internal/fault"
	"remotedb/internal/sim"
)

// clusterHarness runs fn in a simulation with an n-shard cluster over
// `donors` memory servers, each contributing mrs MRs of 1 MiB.
func clusterHarness(t *testing.T, shards, donors, mrs int, cfg Config,
	fn func(p *sim.Proc, c *Cluster, store *metastore.Store)) {
	t.Helper()
	k := newKernel(t, 1)
	k.Go("test", func(p *sim.Proc) {
		store := metastore.New(k, 10*time.Microsecond)
		c := NewCluster(p, store, shards, cfg)
		for i := 0; i < donors; i++ {
			s := testServer(k, "mem"+string(rune('a'+i)))
			if _, err := c.AddProxy(p, s, 1<<20, mrs); err != nil {
				t.Error(err)
				return
			}
		}
		fn(p, c, store)
	})
	k.Run(time.Minute)
}

func TestRendezvousOrderStable(t *testing.T) {
	a := rendezvousOrder("db1", 5)
	b := rendezvousOrder("db1", 5)
	if len(a) != 5 {
		t.Fatalf("order length %d", len(a))
	}
	seen := make(map[int]bool)
	for i, s := range a {
		if s != b[i] {
			t.Fatalf("unstable order: %v vs %v", a, b)
		}
		if seen[s] || s < 0 || s >= 5 {
			t.Fatalf("not a permutation: %v", a)
		}
		seen[s] = true
	}
	// Over many keys every shard must be somebody's first preference,
	// or donors and holders would pile onto a subset of shards.
	first := make(map[int]int)
	for i := 0; i < 100; i++ {
		key := "holder" + string(rune('0'+i%10)) + string(rune('a'+i/10))
		first[rendezvousOrder(key, 5)[0]]++
	}
	for s := 0; s < 5; s++ {
		if first[s] == 0 {
			t.Fatalf("shard %d is never first preference: %v", s, first)
		}
	}
}

func TestClusterGrantRouting(t *testing.T) {
	clusterHarness(t, 4, 8, 2, DefaultConfig(), func(p *sim.Proc, c *Cluster, _ *metastore.Store) {
		leases, err := c.Request(p, RequestSpec{Holder: "db1", N: 10, Place: PlaceSpread})
		if err != nil {
			t.Fatal(err)
		}
		if len(leases) != 10 || c.ActiveLeases() != 10 || c.FreeMRs() != 6 {
			t.Fatalf("leases=%d active=%d free=%d", len(leases), c.ActiveLeases(), c.FreeMRs())
		}
		// Lease IDs are strided: the owning shard is recoverable from
		// the ID alone, and a 10-MR grant must span several shards.
		shardsUsed := make(map[int]bool)
		for _, l := range leases {
			sid := int(l.ID) % c.ShardCount()
			if c.Shard(sid).leases[l.ID] != l {
				t.Fatalf("lease %d routes to shard %d, which does not hold it", l.ID, sid)
			}
			shardsUsed[sid] = true
		}
		if len(shardsUsed) < 2 {
			t.Fatalf("grant of 10 used %d shard(s)", len(shardsUsed))
		}
		for _, l := range leases {
			c.Release(p, l)
		}
		if c.ActiveLeases() != 0 || c.FreeMRs() != 16 {
			t.Fatalf("after release: active=%d free=%d", c.ActiveLeases(), c.FreeMRs())
		}
	})
}

// TestClusterShardHandoffRenewRace drives renewals concurrently with a
// shard failing over through Recover: while the shard is down, renewals
// classify retryable; once the replacement has adopted the shard's
// state, the same lease pointer renews successfully.
func TestClusterShardHandoffRenewRace(t *testing.T) {
	clusterHarness(t, 4, 8, 2, DefaultConfig(), func(p *sim.Proc, c *Cluster, _ *metastore.Store) {
		leases, err := c.Request(p, RequestSpec{Holder: "db1", N: 6, Place: PlaceSpread})
		if err != nil {
			t.Fatal(err)
		}
		target := int(leases[0].ID) % c.ShardCount()
		active := c.ActiveLeases()

		k := p.Kernel()
		var sawDown, renewedAfter bool
		done := sim.NewWaitGroup(k)
		done.Add(1)
		k.Go("renewer", func(rp *sim.Proc) {
			defer done.Done()
			for i := 0; i < 50; i++ {
				err := c.Renew(rp, leases[0])
				if err == nil {
					if sawDown {
						renewedAfter = true
						return
					}
				} else if errors.Is(err, fault.ErrRetryable) {
					sawDown = true
				} else {
					t.Errorf("renew during handoff: %v", err)
					return
				}
				rp.Sleep(2 * time.Millisecond)
			}
		})

		p.Sleep(time.Millisecond)
		c.FailShard(target)
		p.Sleep(10 * time.Millisecond)
		if err := c.RecoverShard(p, target); err != nil {
			t.Fatal(err)
		}
		done.Wait(p)

		if !sawDown || !renewedAfter {
			t.Fatalf("sawDown=%v renewedAfter=%v", sawDown, renewedAfter)
		}
		if c.ActiveLeases() != active {
			t.Fatalf("handoff lost leases: %d -> %d", active, c.ActiveLeases())
		}
		// The recovered shard serves the rest of the cohort too.
		if failed, err := c.RenewAll(p, "db1", leases); err != nil || len(failed) != 0 {
			t.Fatalf("post-handoff heartbeat: failed=%d err=%v", len(failed), err)
		}
	})
}

// TestClusterHeartbeatCohortExpiry checks the cohort semantics of the
// batched heartbeat: while the holder heartbeats, every lease stays
// alive; once it stops, the whole cohort expires together on the sweep.
func TestClusterHeartbeatCohortExpiry(t *testing.T) {
	cfg := DefaultConfig()
	cfg.LeaseTTL = 50 * time.Millisecond
	clusterHarness(t, 2, 4, 2, cfg, func(p *sim.Proc, c *Cluster, _ *metastore.Store) {
		leases, err := c.Request(p, RequestSpec{Holder: "db1", N: 6, Place: PlaceSpread})
		if err != nil {
			t.Fatal(err)
		}
		k := p.Kernel()
		k.Go("expire", func(ep *sim.Proc) { c.ExpireLoop(ep, 10*time.Millisecond) })
		defer c.StopExpireLoop()

		// Four heartbeats at TTL/2 carry the cohort well past 2x TTL.
		for i := 0; i < 4; i++ {
			p.Sleep(25 * time.Millisecond)
			if failed, err := c.RenewAll(p, "db1", leases); err != nil || len(failed) != 0 {
				t.Fatalf("heartbeat %d: failed=%d err=%v", i, len(failed), err)
			}
		}
		if c.ActiveLeases() != 6 {
			t.Fatalf("cohort shrank while heartbeating: %d", c.ActiveLeases())
		}

		// One missed heartbeat: the whole cohort expires together.
		p.Sleep(80 * time.Millisecond)
		if c.ActiveLeases() != 0 {
			t.Fatalf("cohort outlived its missed heartbeat: %d live", c.ActiveLeases())
		}
		if c.Expirations() != 6 {
			t.Fatalf("expirations = %d, want 6", c.Expirations())
		}
	})
}

// TestClusterPartialBatchFailure checks that one dead lease in the
// cohort fails individually without poisoning the batch, while a
// transport failure renews nothing and classifies retryable.
func TestClusterPartialBatchFailure(t *testing.T) {
	clusterHarness(t, 2, 4, 2, DefaultConfig(), func(p *sim.Proc, c *Cluster, store *metastore.Store) {
		leases, err := c.Request(p, RequestSpec{Holder: "db1", N: 4, Place: PlaceSpread})
		if err != nil {
			t.Fatal(err)
		}

		// A revoked lease fails alone; the rest of the batch renews.
		c.Revoke(leases[0].ID)
		before := make([]time.Duration, len(leases))
		for i, l := range leases {
			before[i] = l.ExpiresAt
		}
		p.Sleep(time.Millisecond)
		failed, err := c.RenewAll(p, "db1", leases)
		if err != nil {
			t.Fatal(err)
		}
		if len(failed) != 1 || failed[0] != leases[0] {
			t.Fatalf("failed = %v, want exactly the revoked lease", failed)
		}
		for i, l := range leases[1:] {
			if l.ExpiresAt <= before[i+1] {
				t.Fatalf("lease %d not renewed alongside the dead one", l.ID)
			}
		}

		// A partition renews nothing — the survivors' expiries are
		// untouched and the error is retryable.
		for i, l := range leases {
			before[i] = l.ExpiresAt
		}
		store.SetPartitioned(true)
		p.Sleep(time.Millisecond)
		if _, err := c.RenewAll(p, "db1", leases[1:]); !fault.Retryable(err) {
			t.Fatalf("partitioned heartbeat: %v, want retryable", err)
		}
		for i, l := range leases[1:] {
			if l.ExpiresAt != before[i+1] {
				t.Fatalf("lease %d renewed through a partition", l.ID)
			}
		}
		store.SetPartitioned(false)
	})
}

func TestClusterTenantQuota(t *testing.T) {
	cfg := DefaultConfig()
	cfg.Quotas = map[string]int64{"t1": 3 << 20}
	clusterHarness(t, 2, 4, 2, cfg, func(p *sim.Proc, c *Cluster, _ *metastore.Store) {
		_, err := c.Request(p, RequestSpec{Holder: "db1", N: 4, Tenant: "t1", Place: PlaceSpread})
		if !errors.Is(err, ErrQuota) {
			t.Fatalf("over-quota request: %v, want ErrQuota", err)
		}
		if fault.Retryable(err) {
			t.Fatal("quota denial must not be retryable")
		}
		leases, err := c.Request(p, RequestSpec{Holder: "db1", N: 3, Tenant: "t1", Place: PlaceSpread})
		if err != nil {
			t.Fatal(err)
		}
		if len(leases) != 3 {
			t.Fatalf("granted %d", len(leases))
		}
		// Held bytes count against the quota: one more MR is a denial.
		if _, err := c.Request(p, RequestSpec{Holder: "db1", N: 1, Tenant: "t1", Place: PlaceSpread}); !errors.Is(err, ErrQuota) {
			t.Fatalf("incremental over-quota: %v", err)
		}
		st := c.TenantStats()["t1"]
		if st.Grants != 3 || st.Denies != 2 || st.HeldMRs != 3 {
			t.Fatalf("stats = %+v", st)
		}
	})
}

// TestClusterMaxMinFairness starves the pool and checks that weighted
// water-filling divides the contended capacity ~2:1:1 at the margin:
// once scarcity binds, only the weight-2 tenant can keep growing, and
// every denial is a retryable ErrScarce.
func TestClusterMaxMinFairness(t *testing.T) {
	cfg := DefaultConfig()
	cfg.Weights = map[string]float64{"oltp": 2, "olap": 1, "batch": 1}
	clusterHarness(t, 2, 8, 2, cfg, func(p *sim.Proc, c *Cluster, _ *metastore.Store) {
		// 16 MRs total, scarcity headroom 25%: water-filled capacity 12.
		tenants := []string{"oltp", "olap", "batch"}
		denied := map[string]bool{}
		for len(denied) < len(tenants) {
			progress := false
			for _, tn := range tenants {
				if denied[tn] {
					continue
				}
				_, err := c.Request(p, RequestSpec{Holder: tn, N: 1, Tenant: tn, Place: PlaceSpread})
				switch {
				case err == nil:
					progress = true
				case errors.Is(err, fault.ErrRetryable):
					denied[tn] = true
				default:
					t.Fatalf("tenant %s: %v", tn, err)
				}
			}
			if !progress && len(denied) < len(tenants) {
				t.Fatal("no progress before all tenants denied")
			}
		}
		st := c.TenantStats()
		// FCFS until scarcity binds at 12 held (4/4/4), then only the
		// weight-2 tenant's demand clears the water-fill: 6/4/4.
		if st["oltp"].HeldMRs != 6 || st["olap"].HeldMRs != 4 || st["batch"].HeldMRs != 4 {
			t.Fatalf("held = %d/%d/%d, want 6/4/4",
				st["oltp"].HeldMRs, st["olap"].HeldMRs, st["batch"].HeldMRs)
		}
		if c.FreeMRs() != 2 {
			t.Fatalf("free = %d, want the 2-MR scarcity headroom intact", c.FreeMRs())
		}
	})
}

func TestMaxMinAlloc(t *testing.T) {
	alloc := maxMinAlloc(12,
		map[string]float64{"a": 5, "b": 4, "c": 4},
		map[string]float64{"a": 2, "b": 1, "c": 1})
	if alloc["a"] < 5-1e-9 {
		t.Fatalf("weight-2 tenant's demand 5 should clear: %v", alloc)
	}
	if alloc["b"] > 3.5+1e-9 || alloc["c"] > 3.5+1e-9 {
		t.Fatalf("weight-1 tenants should fill to 3.5: %v", alloc)
	}
	sum := alloc["a"] + alloc["b"] + alloc["c"]
	if sum > 12+1e-6 {
		t.Fatalf("allocated %v > capacity", sum)
	}
}

// TestClusterShedFairRoundRobin: the reclamation wave sheds oldest
// leases first, round-robin over tenants, so no tenant loses its whole
// working set while another loses nothing.
func TestClusterShedFairRoundRobin(t *testing.T) {
	clusterHarness(t, 2, 8, 2, DefaultConfig(), func(p *sim.Proc, c *Cluster, _ *metastore.Store) {
		for _, tn := range []string{"a", "b", "c"} {
			if _, err := c.Request(p, RequestSpec{Holder: tn, N: 4, Tenant: tn, Place: PlaceSpread}); err != nil {
				t.Fatal(err)
			}
		}
		shed := make(map[string]int)
		c.OnRevoke("", func(l *Lease) { shed[l.Tenant]++ })
		if n := c.ShedFair(6); n != 6 {
			t.Fatalf("shed %d, want 6", n)
		}
		if shed["a"] != 2 || shed["b"] != 2 || shed["c"] != 2 {
			t.Fatalf("shed spread = %v, want 2 each", shed)
		}
		if c.ActiveLeases() != 6 {
			t.Fatalf("active = %d", c.ActiveLeases())
		}
	})
}
