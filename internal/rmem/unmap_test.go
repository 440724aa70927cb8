package rmem_test

import (
	"runtime"
	"testing"
	"time"

	"remotedb/internal/broker"
	"remotedb/internal/broker/metastore"
	"remotedb/internal/cluster"
	"remotedb/internal/hw/nic"
	"remotedb/internal/rmem"
	"remotedb/internal/sim"
)

// awaitMapped runs the collector until at most want bytes of regions are
// still mapped, and returns what is left. A region dropped still pinned
// is unmapped by a finalizer, which runs after the GC that found it
// unreachable.
func awaitMapped(want int64) int64 {
	n := rmem.MappedBytes()
	for i := 0; i < 200 && n > want; i++ {
		runtime.GC()
		time.Sleep(time.Millisecond)
		n = rmem.MappedBytes()
	}
	return n
}

// bed is what the test keeps of a lease service with two donors, wired
// as an experiment bed wires them: each pool sits behind a broker proxy,
// and the donor's memory-pressure subscription points back at it, so
// every MR is reachable from itself (MR → Owner → subscription → proxy →
// pool → MR).
type bed struct {
	k       *sim.Kernel
	c       *broker.Cluster
	servers []*cluster.Server
	proxies []*broker.Proxy
}

const (
	mrSize = 1 << 20
	mrs    = 4
)

func newBed(t *testing.T) *bed {
	b := &bed{k: sim.New(1)}
	for _, name := range []string{"m1", "m2"} {
		cfg := cluster.DefaultConfig()
		cfg.MemoryBytes = 64 << 20
		b.servers = append(b.servers, cluster.NewServer(b.k, name, cfg))
	}
	db := cluster.NewServer(b.k, "db1", cluster.DefaultConfig())
	b.k.Go("bed", func(p *sim.Proc) {
		store := metastore.New(b.k, 10*time.Microsecond)
		b.c = broker.NewCluster(p, store, 1, broker.DefaultConfig())
		for _, s := range b.servers {
			px, err := b.c.AddProxy(p, s, mrSize, mrs)
			if err != nil {
				t.Error(err)
				return
			}
			b.proxies = append(b.proxies, px)
		}
		// Touch one leased region so it has backed pages.
		leases, err := b.c.Request(p, broker.RequestSpec{Holder: "db1", N: 2})
		if err != nil {
			t.Error(err)
			return
		}
		cl := rmem.NewClient(p, db, rmem.DefaultClientConfig())
		if err := rmem.NewTransport(nic.ProtoRDMA).Write(p, cl, leases[0].MR, 0, make([]byte, 64<<10)); err != nil {
			t.Error(err)
		}
	})
	b.k.Run(time.Second)
	return b
}

// TestDroppedRegionsAreUnmapped checks that every way a region stops
// being pinned hands its mapping back to the OS: a failed donor or a
// pressure shrink at once, a dropped bed within a few collections.
func TestDroppedRegionsAreUnmapped(t *testing.T) {
	start := awaitMapped(0)

	b := newBed(t)
	if got, want := rmem.MappedBytes(), start+2*mrs*mrSize; got != want {
		t.Fatalf("mapped %d bytes after the bed, want %d", got, want)
	}
	// A failed donor revokes all of its regions, leased or not.
	b.c.FailProxy(b.proxies[0])
	if got, want := rmem.MappedBytes(), start+mrs*mrSize; got != want {
		t.Errorf("after RevokeAll: %d bytes mapped, want %d", got, want)
	}
	// Local demand on the other donor shrinks its pool by two free MRs.
	s := b.servers[1]
	if err := s.CommitLocal(s.MemoryFree() + 2*mrSize); err != nil {
		t.Fatal(err)
	}
	if n := b.proxies[1].Pool.TotalCount(); n != mrs-2 {
		t.Fatalf("pressure left %d MRs, want %d", n, mrs-2)
	}
	if got, want := rmem.MappedBytes(), start+(mrs-2)*mrSize; got != want {
		t.Errorf("after Shrink: %d bytes mapped, want %d", got, want)
	}
	// Dropping the bed drops the regions still pinned.
	b.k.Close()
	b = nil
	if got := awaitMapped(start); got != start {
		t.Errorf("after dropping the bed: %d bytes mapped, want %d", got, start)
	}
	// A second bed dropped whole, without any revocation.
	newBed(t).k.Close()
	if got := awaitMapped(start); got != start {
		t.Errorf("after dropping a second bed: %d bytes mapped, want %d", got, start)
	}
}
