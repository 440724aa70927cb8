package broker

import (
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

// harness runs fn in a simulation with a broker over n memory servers,
// each contributing mrs MRs of 1 MiB.
func harness(t *testing.T, n, mrs int, fn func(p *sim.Proc, b *Broker, servers []*cluster.Server, proxies []*Proxy)) {
	t.Helper()
	k := sim.New(1)
	var servers []*cluster.Server
	for i := 0; i < n; i++ {
		servers = append(servers, testServer(k, "m"+string(rune('1'+i))))
	}
	k.Go("test", func(p *sim.Proc) {
		store := metastore.New(k, 10*time.Microsecond)
		b := New(p, store, DefaultConfig())
		var proxies []*Proxy
		for _, s := range servers {
			px, err := b.AddProxy(p, s, 1<<20, mrs)
			if err != nil {
				t.Error(err)
				return
			}
			proxies = append(proxies, px)
		}
		fn(p, b, servers, proxies)
	})
	k.Run(0)
}

func TestGrantAndRelease(t *testing.T) {
	harness(t, 1, 4, func(p *sim.Proc, b *Broker, servers []*cluster.Server, proxies []*Proxy) {
		leases, err := b.Request(p, RequestSpec{Holder: "db1", N: 2, Place: PlacePack})
		if err != nil {
			t.Fatal(err)
		}
		if len(leases) != 2 || b.ActiveLeases() != 2 || b.FreeMRs() != 2 {
			t.Fatalf("leases=%d active=%d free=%d", len(leases), b.ActiveLeases(), b.FreeMRs())
		}
		for _, l := range leases {
			if !l.Valid(p.Now()) {
				t.Fatal("fresh lease invalid")
			}
			b.Release(p, l)
		}
		if b.ActiveLeases() != 0 || b.FreeMRs() != 4 {
			t.Fatalf("after release: active=%d free=%d", b.ActiveLeases(), b.FreeMRs())
		}
	})
}

func TestInsufficientMemory(t *testing.T) {
	harness(t, 1, 2, func(p *sim.Proc, b *Broker, _ []*cluster.Server, _ []*Proxy) {
		if _, err := b.Request(p, RequestSpec{Holder: "db1", N: 3, Place: PlacePack}); err != ErrNoMemory {
			t.Fatalf("err = %v, want ErrNoMemory", err)
		}
	})
}

func TestSpreadPlacement(t *testing.T) {
	harness(t, 4, 4, func(p *sim.Proc, b *Broker, servers []*cluster.Server, _ []*Proxy) {
		leases, err := b.Request(p, RequestSpec{Holder: "db1", N: 8, Place: PlaceSpread})
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
		for name, c := range perServer {
			if c != 2 {
				t.Fatalf("server %s got %d MRs, want 2", name, c)
			}
		}
	})
}

func TestPackPlacement(t *testing.T) {
	harness(t, 2, 4, func(p *sim.Proc, b *Broker, servers []*cluster.Server, _ []*Proxy) {
		leases, _ := b.Request(p, RequestSpec{Holder: "db1", N: 4, Place: PlacePack})
		for _, l := range leases {
			if l.MR.Owner != servers[0] {
				t.Fatal("pack placement should fill the first server first")
			}
		}
	})
}

func TestRenewExtendsExpiry(t *testing.T) {
	harness(t, 1, 1, func(p *sim.Proc, b *Broker, _ []*cluster.Server, _ []*Proxy) {
		leases, _ := b.Request(p, RequestSpec{Holder: "db1", N: 1, Place: PlacePack})
		l := leases[0]
		old := l.ExpiresAt
		p.Sleep(time.Second)
		if err := b.Renew(p, l); err != nil {
			t.Fatal(err)
		}
		if l.ExpiresAt <= old {
			t.Fatal("renew did not extend expiry")
		}
	})
}

func TestExpiryRevokesLease(t *testing.T) {
	k := sim.New(1)
	m := testServer(k, "m1")
	k.Go("test", func(p *sim.Proc) {
		store := metastore.New(k, 10*time.Microsecond)
		b := New(p, store, Config{LeaseTTL: 100 * time.Millisecond})
		b.AddProxy(p, m, 1<<20, 1)
		leases, _ := b.Request(p, RequestSpec{Holder: "db1", N: 1, Place: PlacePack})
		l := leases[0]
		k.Go("expirer", func(ep *sim.Proc) { b.ExpireLoop(ep, 50*time.Millisecond) })
		p.Sleep(300 * time.Millisecond)
		if l.Valid(p.Now()) {
			t.Error("lease should have expired")
		}
		if b.Expirations == 0 {
			t.Error("expiration not counted")
		}
		if err := b.Renew(p, l); err == nil {
			t.Error("renewing an expired lease should fail")
		}
	})
	k.Run(500 * time.Millisecond)
}

func TestRenewalKeepsLeaseAlive(t *testing.T) {
	k := sim.New(1)
	m := testServer(k, "m1")
	k.Go("test", func(p *sim.Proc) {
		store := metastore.New(k, 10*time.Microsecond)
		b := New(p, store, Config{LeaseTTL: 100 * time.Millisecond})
		b.AddProxy(p, m, 1<<20, 1)
		leases, _ := b.Request(p, RequestSpec{Holder: "db1", N: 1, Place: PlacePack})
		l := leases[0]
		k.Go("expirer", func(ep *sim.Proc) { b.ExpireLoop(ep, 20*time.Millisecond) })
		for i := 0; i < 10; i++ {
			p.Sleep(50 * time.Millisecond)
			if err := b.Renew(p, l); err != nil {
				t.Errorf("renew %d failed: %v", i, err)
				return
			}
		}
		if !l.Valid(p.Now()) {
			t.Error("renewed lease should be valid")
		}
	})
	k.Run(time.Second)
}

func TestMemoryPressureRevokesLeases(t *testing.T) {
	harness(t, 1, 4, func(p *sim.Proc, b *Broker, servers []*cluster.Server, _ []*Proxy) {
		m := servers[0]
		// Lease 3 of 4 MRs; 1 stays free in the pool.
		leases, _ := b.Request(p, RequestSpec{Holder: "db1", N: 3, Place: PlacePack})
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
		if b.Revocations != 1 {
			t.Fatalf("revocations = %d", b.Revocations)
		}
	})
}

func TestProxyFailureRevokesAll(t *testing.T) {
	harness(t, 2, 3, func(p *sim.Proc, b *Broker, servers []*cluster.Server, proxies []*Proxy) {
		leases, _ := b.Request(p, RequestSpec{Holder: "db1", N: 4, Place: PlaceSpread})
		b.FailProxy(proxies[0])
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
		more, err := b.Request(p, RequestSpec{Holder: "db2", N: 1, Place: PlaceSpread})
		if err != nil {
			t.Fatal(err)
		}
		if more[0].MR.Owner != servers[1] {
			t.Fatal("grant placed on failed server")
		}
	})
}

func TestBrokerFailover(t *testing.T) {
	k := sim.New(1)
	m := testServer(k, "m1")
	k.Go("test", func(p *sim.Proc) {
		store := metastore.New(k, 10*time.Microsecond)
		b1 := New(p, store, DefaultConfig())
		px, _ := b1.AddProxy(p, m, 1<<20, 4)
		leases, _ := b1.Request(p, RequestSpec{Holder: "db1", N: 2, Place: PlacePack})

		// Broker b1 "crashes"; a new broker recovers from the metastore.
		live := map[LeaseID]*Lease{leases[0].ID: leases[0], leases[1].ID: leases[1]}
		b2, err := Recover(p, store, DefaultConfig(), []*Proxy{px}, live)
		if err != nil {
			t.Fatal(err)
		}
		if b2.ActiveLeases() != 2 {
			t.Fatalf("recovered leases = %d, want 2", b2.ActiveLeases())
		}
		// The recovered broker can renew and grant without ID collisions.
		if err := b2.Renew(p, leases[0]); err != nil {
			t.Fatal(err)
		}
		more, err := b2.Request(p, RequestSpec{Holder: "db1", N: 1, Place: PlacePack})
		if err != nil {
			t.Fatal(err)
		}
		if more[0].ID == leases[0].ID || more[0].ID == leases[1].ID {
			t.Fatal("lease ID collision after recovery")
		}
	})
	k.Run(0)
}

func TestFairShareCap(t *testing.T) {
	k := sim.New(1)
	m := testServer(k, "m1")
	k.Go("test", func(p *sim.Proc) {
		store := metastore.New(k, 10*time.Microsecond)
		cfg := DefaultConfig()
		cfg.MaxFractionPerHolder = 0.5
		b := New(p, store, cfg)
		b.AddProxy(p, m, 1<<20, 8)
		// db1 may take at most 4 of the 8 MRs.
		if _, err := b.Request(p, RequestSpec{Holder: "db1", N: 4, Place: PlacePack}); err != nil {
			t.Errorf("within quota: %v", err)
		}
		if _, err := b.Request(p, RequestSpec{Holder: "db1", N: 1, Place: PlacePack}); err != ErrQuota {
			t.Errorf("over quota: %v, want ErrQuota", err)
		}
		// Another holder still gets its share.
		if _, err := b.Request(p, RequestSpec{Holder: "db2", N: 4, Place: PlacePack}); err != nil {
			t.Errorf("second holder within quota: %v", err)
		}
	})
	k.Run(0)
}

// Anti-affinity: a request with an Avoid set must never place a lease on an avoided
// donor, and under donor scarcity it must refuse rather than violate
// the constraint — free MRs on an avoided server do not count.
func TestRequestAvoidingSkipsDonors(t *testing.T) {
	harness(t, 3, 2, func(p *sim.Proc, b *Broker, servers []*cluster.Server, _ []*Proxy) {
		avoid := map[string]bool{servers[0].Name: true}
		leases, err := b.Request(p, RequestSpec{Holder: "db1", N: 4, Place: PlaceSpread, Avoid: avoid})
		if err != nil {
			t.Fatal(err)
		}
		for _, l := range leases {
			if avoid[l.MR.Owner.Name] {
				t.Fatalf("lease placed on avoided donor %s", l.MR.Owner.Name)
			}
		}
		if b.FreeMRs() != 2 {
			t.Fatalf("free=%d, want 2 (the avoided donor untouched)", b.FreeMRs())
		}
	})
}

func TestRequestAvoidingScarcityRefuses(t *testing.T) {
	harness(t, 2, 2, func(p *sim.Proc, b *Broker, servers []*cluster.Server, _ []*Proxy) {
		// Exhaust the allowed donor.
		if _, err := b.Request(p, RequestSpec{Holder: "db1", N: 2, Place: PlacePack,
			Avoid: map[string]bool{servers[0].Name: true}}); err != nil {
			t.Fatal(err)
		}
		// Only the avoided donor has free MRs left: the request must
		// refuse, not fall back onto it.
		_, err := b.Request(p, RequestSpec{Holder: "db1", N: 1, Place: PlacePack,
			Avoid: map[string]bool{servers[0].Name: true}})
		if err != ErrNoMemory {
			t.Fatalf("err = %v, want ErrNoMemory", err)
		}
		if b.FreeMRs() != 2 {
			t.Fatalf("free=%d, want 2 (no lease leaked)", b.FreeMRs())
		}
		// Dropping the constraint makes the same request succeed.
		leases, err := b.Request(p, RequestSpec{Holder: "db1", N: 1, Place: PlacePack})
		if err != nil {
			t.Fatal(err)
		}
		if leases[0].MR.Owner != servers[0] {
			t.Fatal("unconstrained request should use the remaining donor")
		}
	})
}

func TestRequestAvoidingAllDonorsRefuses(t *testing.T) {
	harness(t, 2, 4, func(p *sim.Proc, b *Broker, servers []*cluster.Server, _ []*Proxy) {
		avoid := map[string]bool{servers[0].Name: true, servers[1].Name: true}
		if _, err := b.Request(p, RequestSpec{Holder: "db1", N: 1, Place: PlaceSpread, Avoid: avoid}); err != ErrNoMemory {
			t.Fatalf("err = %v, want ErrNoMemory with every donor avoided", err)
		}
	})
}
