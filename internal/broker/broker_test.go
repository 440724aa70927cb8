package broker

import (
	"errors"
	"testing"
	"time"

	"remotedb/internal/broker/metastore"
	"remotedb/internal/cluster"
	"remotedb/internal/sim"
)

func testServer(k *sim.Kernel, name string) *cluster.Server {
	cfg := cluster.DefaultConfig()
	cfg.MemoryBytes = 64 << 20
	return cluster.NewServer(k, name, cfg)
}

// harness runs fn in a simulation with a one-shard lease service over n
// memory servers m1, m2, ..., each contributing mrs MRs of 1 MiB.
func harness(t *testing.T, n, mrs int, fn func(p *sim.Proc, c *Cluster, servers []*cluster.Server, proxies []*Proxy)) {
	t.Helper()
	k := newKernel(t, 1)
	var servers []*cluster.Server
	for i := 0; i < n; i++ {
		servers = append(servers, testServer(k, "m"+string(rune('1'+i))))
	}
	k.Go("test", func(p *sim.Proc) {
		store := metastore.New(k, 10*time.Microsecond)
		c := NewCluster(p, store, 1, DefaultConfig())
		var proxies []*Proxy
		for _, s := range servers {
			px, err := c.AddProxy(p, s, 1<<20, mrs)
			if err != nil {
				t.Error(err)
				return
			}
			proxies = append(proxies, px)
		}
		fn(p, c, servers, proxies)
	})
	k.Run(0)
}

func TestGrantAndRelease(t *testing.T) {
	harness(t, 1, 4, func(p *sim.Proc, c *Cluster, servers []*cluster.Server, proxies []*Proxy) {
		leases, err := c.Request(p, RequestSpec{Holder: "db1", N: 2, Place: PlacePack})
		if err != nil {
			t.Fatal(err)
		}
		if len(leases) != 2 || c.ActiveLeases() != 2 || c.FreeMRs() != 2 {
			t.Fatalf("leases=%d active=%d free=%d", len(leases), c.ActiveLeases(), c.FreeMRs())
		}
		for _, l := range leases {
			if !l.Valid(p.Now()) {
				t.Fatal("fresh lease invalid")
			}
			c.Release(p, l)
		}
		if c.ActiveLeases() != 0 || c.FreeMRs() != 4 {
			t.Fatalf("after release: active=%d free=%d", c.ActiveLeases(), c.FreeMRs())
		}
	})
}

func TestInsufficientMemory(t *testing.T) {
	harness(t, 1, 2, func(p *sim.Proc, c *Cluster, _ []*cluster.Server, _ []*Proxy) {
		if _, err := c.Request(p, RequestSpec{Holder: "db1", N: 3, Place: PlacePack}); err != ErrNoMemory {
			t.Fatalf("err = %v, want ErrNoMemory", err)
		}
	})
}

func TestSpreadPlacement(t *testing.T) {
	harness(t, 4, 4, func(p *sim.Proc, c *Cluster, servers []*cluster.Server, _ []*Proxy) {
		leases, err := c.Request(p, RequestSpec{Holder: "db1", N: 8, Place: PlaceSpread})
		if err != nil {
			t.Fatal(err)
		}
		perServer := make(map[string]int)
		for _, l := range leases {
			perServer[l.MR.Owner.Name]++
		}
		if len(perServer) != 4 {
			t.Fatalf("spread used %d servers, want 4", len(perServer))
		}
		for name, n := range perServer {
			if n != 2 {
				t.Fatalf("server %s got %d MRs, want 2", name, n)
			}
		}
	})
}

func TestPackPlacement(t *testing.T) {
	harness(t, 2, 4, func(p *sim.Proc, c *Cluster, servers []*cluster.Server, _ []*Proxy) {
		leases, _ := c.Request(p, RequestSpec{Holder: "db1", N: 4, Place: PlacePack})
		for _, l := range leases {
			if l.MR.Owner != servers[0] {
				t.Fatal("pack placement should fill the first server first")
			}
		}
	})
}

func TestRenewExtendsExpiry(t *testing.T) {
	harness(t, 1, 1, func(p *sim.Proc, c *Cluster, _ []*cluster.Server, _ []*Proxy) {
		leases, _ := c.Request(p, RequestSpec{Holder: "db1", N: 1, Place: PlacePack})
		l := leases[0]
		old := l.ExpiresAt
		p.Sleep(time.Second)
		if err := c.Renew(p, l); err != nil {
			t.Fatal(err)
		}
		if l.ExpiresAt <= old {
			t.Fatal("renew did not extend expiry")
		}
	})
}

func TestExpiryRevokesLease(t *testing.T) {
	faultHarness(t, 100*time.Millisecond, 1, func(p *sim.Proc, c *Cluster, _ *metastore.Store) {
		leases, _ := c.Request(p, RequestSpec{Holder: "db1", N: 1, Place: PlacePack})
		l := leases[0]
		p.Kernel().Go("expirer", func(ep *sim.Proc) { c.ExpireLoop(ep, 50*time.Millisecond) })
		defer c.StopExpireLoop()
		p.Sleep(300 * time.Millisecond)
		if l.Valid(p.Now()) {
			t.Error("lease should have expired")
		}
		if c.Expirations() == 0 {
			t.Error("expiration not counted")
		}
		if err := c.Renew(p, l); err == nil {
			t.Error("renewing an expired lease should fail")
		}
	})
}

func TestRenewalKeepsLeaseAlive(t *testing.T) {
	faultHarness(t, 100*time.Millisecond, 1, func(p *sim.Proc, c *Cluster, _ *metastore.Store) {
		leases, _ := c.Request(p, RequestSpec{Holder: "db1", N: 1, Place: PlacePack})
		l := leases[0]
		p.Kernel().Go("expirer", func(ep *sim.Proc) { c.ExpireLoop(ep, 20*time.Millisecond) })
		defer c.StopExpireLoop()
		for i := 0; i < 10; i++ {
			p.Sleep(50 * time.Millisecond)
			if err := c.Renew(p, l); err != nil {
				t.Errorf("renew %d failed: %v", i, err)
				return
			}
		}
		if !l.Valid(p.Now()) {
			t.Error("renewed lease should be valid")
		}
	})
}

func TestMemoryPressureRevokesLeases(t *testing.T) {
	harness(t, 1, 4, func(p *sim.Proc, c *Cluster, servers []*cluster.Server, _ []*Proxy) {
		m := servers[0]
		// Lease 3 of 4 MRs; 1 stays free in the pool.
		leases, _ := c.Request(p, RequestSpec{Holder: "db1", N: 3, Place: PlacePack})
		free := m.MemoryFree()
		// Local demand needs free memory + 2 MiB: the free MR plus one lease
		// must be reclaimed.
		if err := m.CommitLocal(free + 2<<20); err != nil {
			t.Fatalf("local commit should be satisfied after reclamation: %v", err)
		}
		revoked := 0
		for _, l := range leases {
			if !l.Valid(p.Now()) {
				revoked++
			}
		}
		if revoked != 1 {
			t.Fatalf("revoked = %d leases, want 1", revoked)
		}
		if c.Revocations() != 1 {
			t.Fatalf("revocations = %d", c.Revocations())
		}
	})
}

// A memory-pressure reclamation counts as the victim tenant's shed, as a
// ShedFair wave does, and settles the tenant's holdings.
func TestPressureShedsChargeTenant(t *testing.T) {
	cfg := DefaultConfig()
	cfg.Quotas = map[string]int64{"t1": 8 << 20}
	clusterHarness(t, 1, 1, 4, cfg, func(p *sim.Proc, c *Cluster, _ *metastore.Store) {
		leases, err := c.Request(p, RequestSpec{Holder: "db1", N: 4, Tenant: "t1", Place: PlacePack})
		if err != nil {
			t.Fatal(err)
		}
		// No free MR left: a 2 MiB shortfall revokes two leases.
		m := leases[0].MR.Owner
		if err := m.CommitLocal(m.MemoryFree() + 2<<20); err != nil {
			t.Fatal(err)
		}
		st := c.TenantStats()["t1"]
		if st.Sheds != 2 || st.HeldMRs != 2 {
			t.Fatalf("stats = %+v, want 2 sheds and 2 MRs held", st)
		}
	})
}

func TestProxyFailureRevokesAll(t *testing.T) {
	harness(t, 2, 3, func(p *sim.Proc, c *Cluster, servers []*cluster.Server, proxies []*Proxy) {
		leases, _ := c.Request(p, RequestSpec{Holder: "db1", N: 4, Place: PlaceSpread})
		c.FailProxy(proxies[0])
		valid := 0
		for _, l := range leases {
			if l.Valid(p.Now()) {
				valid++
			}
		}
		if valid != 2 {
			t.Fatalf("valid leases after failure = %d, want 2", valid)
		}
		// New requests must avoid the failed server.
		more, err := c.Request(p, RequestSpec{Holder: "db2", N: 1, Place: PlaceSpread})
		if err != nil {
			t.Fatal(err)
		}
		if more[0].MR.Owner != servers[1] {
			t.Fatal("grant placed on failed server")
		}
	})
}

// The broker crashes and a replacement recovers its lease space from the
// metastore: holders' leases survive the handoff, new grants do not
// collide with them, and the donor's memory pressure reaches the new
// broker.
func TestBrokerFailover(t *testing.T) {
	harness(t, 1, 4, func(p *sim.Proc, c *Cluster, servers []*cluster.Server, _ []*Proxy) {
		leases, _ := c.Request(p, RequestSpec{Holder: "db1", N: 2, Place: PlacePack})

		c.FailShard(0)
		if err := c.Renew(p, leases[0]); !errors.Is(err, ErrShardDown) {
			t.Fatalf("renew on a crashed broker: %v, want ErrShardDown", err)
		}
		if err := c.RecoverShard(p, 0); err != nil {
			t.Fatal(err)
		}
		if c.ActiveLeases() != 2 {
			t.Fatalf("recovered leases = %d, want 2", c.ActiveLeases())
		}
		// The recovered broker can renew and grant without ID collisions.
		if err := c.Renew(p, leases[0]); err != nil {
			t.Fatal(err)
		}
		more, err := c.Request(p, RequestSpec{Holder: "db1", N: 1, Place: PlacePack})
		if err != nil {
			t.Fatal(err)
		}
		if more[0].ID == leases[0].ID || more[0].ID == leases[1].ID {
			t.Fatal("lease ID collision after recovery")
		}
		// One MR is free: a 2 MiB shortfall reclaims it and one lease.
		m := servers[0]
		if err := m.CommitLocal(m.MemoryFree() + 2<<20); err != nil {
			t.Fatal(err)
		}
		if c.Revocations() != 1 || c.ActiveLeases() != 2 {
			t.Fatalf("pressure after handoff: revocations=%d active=%d, want 1/2",
				c.Revocations(), c.ActiveLeases())
		}
	})
}

// A request with no Tenant is charged to its holder, so a quota keyed
// by the holder's name caps that server's share of the pool.
func TestHolderQuotaCapsDefaultTenant(t *testing.T) {
	cfg := DefaultConfig()
	cfg.Quotas = map[string]int64{"db1": 4 << 20, "db2": 4 << 20}
	clusterHarness(t, 1, 1, 8, cfg, func(p *sim.Proc, c *Cluster, _ *metastore.Store) {
		// db1 may take at most 4 of the 8 1-MiB MRs.
		if _, err := c.Request(p, RequestSpec{Holder: "db1", N: 4, Place: PlacePack}); err != nil {
			t.Errorf("within quota: %v", err)
		}
		if _, err := c.Request(p, RequestSpec{Holder: "db1", N: 1, Place: PlacePack}); !errors.Is(err, ErrQuota) {
			t.Errorf("over quota: %v, want ErrQuota", err)
		}
		// Another holder still gets its share.
		if _, err := c.Request(p, RequestSpec{Holder: "db2", N: 4, Place: PlacePack}); err != nil {
			t.Errorf("second holder within quota: %v", err)
		}
		st := c.TenantStats()
		if st["db1"].HeldMRs != 4 || st["db1"].Denies != 1 || st["db2"].HeldMRs != 4 {
			t.Errorf("tenant stats = %+v, want db1 and db2 holding 4 MRs each, db1 denied once", st)
		}
	})
}

// Anti-affinity: a request with an Avoid set must never place a lease on an avoided
// donor, and under donor scarcity it must refuse rather than violate
// the constraint — free MRs on an avoided server do not count.
func TestRequestAvoidingSkipsDonors(t *testing.T) {
	harness(t, 3, 2, func(p *sim.Proc, c *Cluster, servers []*cluster.Server, _ []*Proxy) {
		avoid := map[string]bool{servers[0].Name: true}
		leases, err := c.Request(p, RequestSpec{Holder: "db1", N: 4, Place: PlaceSpread, Avoid: avoid})
		if err != nil {
			t.Fatal(err)
		}
		for _, l := range leases {
			if avoid[l.MR.Owner.Name] {
				t.Fatalf("lease placed on avoided donor %s", l.MR.Owner.Name)
			}
		}
		if c.FreeMRs() != 2 {
			t.Fatalf("free=%d, want 2 (the avoided donor untouched)", c.FreeMRs())
		}
	})
}

func TestRequestAvoidingScarcityRefuses(t *testing.T) {
	harness(t, 2, 2, func(p *sim.Proc, c *Cluster, servers []*cluster.Server, _ []*Proxy) {
		// Exhaust the allowed donor.
		if _, err := c.Request(p, RequestSpec{Holder: "db1", N: 2, Place: PlacePack,
			Avoid: map[string]bool{servers[0].Name: true}}); err != nil {
			t.Fatal(err)
		}
		// Only the avoided donor has free MRs left: the request must
		// refuse, not fall back onto it.
		_, err := c.Request(p, RequestSpec{Holder: "db1", N: 1, Place: PlacePack,
			Avoid: map[string]bool{servers[0].Name: true}})
		if err != ErrNoMemory {
			t.Fatalf("err = %v, want ErrNoMemory", err)
		}
		if c.FreeMRs() != 2 {
			t.Fatalf("free=%d, want 2 (no lease leaked)", c.FreeMRs())
		}
		// Dropping the constraint makes the same request succeed.
		leases, err := c.Request(p, RequestSpec{Holder: "db1", N: 1, Place: PlacePack})
		if err != nil {
			t.Fatal(err)
		}
		if leases[0].MR.Owner != servers[0] {
			t.Fatal("unconstrained request should use the remaining donor")
		}
	})
}

func TestRequestAvoidingAllDonorsRefuses(t *testing.T) {
	harness(t, 2, 4, func(p *sim.Proc, c *Cluster, servers []*cluster.Server, _ []*Proxy) {
		avoid := map[string]bool{servers[0].Name: true, servers[1].Name: true}
		if _, err := c.Request(p, RequestSpec{Holder: "db1", N: 1, Place: PlaceSpread, Avoid: avoid}); err != ErrNoMemory {
			t.Fatalf("err = %v, want ErrNoMemory with every donor avoided", err)
		}
	})
}
