// Facade-level tests: the unified error taxonomy must be classifiable
// with errors.Is against this package alone, wherever in the stack the
// error was produced, and the functional-options constructors must
// assemble working objects.
package remotedb_test

import (
	"errors"
	"testing"
	"time"

	"remotedb"
	"remotedb/internal/broker"
)

func TestErrorTaxonomyThroughFacade(t *testing.T) {
	k := remotedb.NewKernel(1)
	k.Go("t", func(p *remotedb.Proc) {
		cl := remotedb.NewCluster(k)
		db := cl.AddServer("db1", remotedb.DefaultServerConfig())
		mem := cl.AddServer("mem1", remotedb.DefaultServerConfig())
		store := remotedb.NewMetaStore(k, 10*time.Microsecond)
		b := remotedb.StartBroker(p, store, remotedb.WithLeaseTTL(time.Second))
		px, err := b.AddProxy(p, mem, 1<<20, 8)
		if err != nil {
			t.Fatal(err)
		}
		client := remotedb.NewRemoteClient(p, db, remotedb.DefaultRemoteClientConfig())
		// Recovery off: a lost stripe turns the whole file unavailable,
		// which is the stable terminal state this test classifies.
		fs := remotedb.MountRemoteFS(p, b, client, remotedb.WithRecovery(false))

		// ErrNotFound from the file layer.
		if _, err := fs.Open(p, "ghost"); !errors.Is(err, remotedb.ErrNotFound) {
			t.Errorf("open missing: %v not classified ErrNotFound", err)
		}

		// ErrRetryable from the metastore, surfaced through the broker.
		store.SetPartitioned(true)
		if _, err := b.Request(p, remotedb.RequestSpec{Holder: "db1", N: 1, Place: remotedb.PlaceSpread}); !errors.Is(err, remotedb.ErrRetryable) {
			t.Errorf("request during partition: %v not classified ErrRetryable", err)
		} else if !remotedb.Retryable(err) {
			t.Error("Retryable() disagrees with errors.Is")
		}
		store.SetPartitioned(false)

		// ErrRevoked from the broker after a targeted revocation.
		leases, err := b.Request(p, remotedb.RequestSpec{Holder: "db1", N: 1, Place: remotedb.PlaceSpread})
		if err != nil {
			t.Fatal(err)
		}
		b.Revoke(leases[0].ID)
		if err := b.Renew(p, leases[0]); !errors.Is(err, remotedb.ErrRevoked) {
			t.Errorf("renew of revoked lease: %v not classified ErrRevoked", err)
		}

		// ErrUnavailable from the file layer after the donor dies.
		f, err := fs.Create(p, "f", 2<<20)
		if err != nil {
			t.Fatal(err)
		}
		if err := f.OpenConn(p); err != nil {
			t.Fatal(err)
		}
		b.FailProxy(px)
		if err := f.ReadAt(p, make([]byte, 4096), 0); !errors.Is(err, remotedb.ErrUnavailable) {
			t.Errorf("read after donor failure: %v not classified ErrUnavailable", err)
		}

		// ErrClosed from the vfs layer.
		f.Close(p)
		if err := f.ReadAt(p, make([]byte, 4096), 0); !errors.Is(err, remotedb.ErrClosed) {
			t.Errorf("read after close: %v not classified ErrClosed", err)
		}
	})
	k.Run(time.Minute)
}

// The cluster-scale options reach the broker and the mount: two shards,
// a tenant quota enforced once at the router, and the mount's leases
// charged to its tenant, so its grant past the quota fails for good.
func TestTenantQuotaThroughFacade(t *testing.T) {
	k := remotedb.NewKernel(1)
	defer k.Close()
	k.Go("t", func(p *remotedb.Proc) {
		cl := remotedb.NewCluster(k)
		db := cl.AddServer("db1", remotedb.DefaultServerConfig())
		store := remotedb.NewMetaStore(k, 10*time.Microsecond)
		b := remotedb.StartBroker(p, store,
			remotedb.WithBrokerShards(2),
			remotedb.WithTenantQuota("oltp", 4<<20))
		if b.ShardCount() != 2 {
			t.Errorf("shards: got %d", b.ShardCount())
		}
		for _, name := range []string{"mem1", "mem2"} {
			if _, err := b.AddProxy(p, cl.AddServer(name, remotedb.DefaultServerConfig()), 1<<20, 8); err != nil {
				t.Fatal(err)
			}
		}
		client := remotedb.NewRemoteClient(p, db, remotedb.DefaultRemoteClientConfig())
		fs := remotedb.MountRemoteFS(p, b, client,
			remotedb.WithTenant("oltp"),
			remotedb.WithHeartbeatEvery(50*time.Millisecond))
		if fs.HeartbeatEvery != 50*time.Millisecond {
			t.Errorf("heartbeat: got %v", fs.HeartbeatEvery)
		}
		if _, err := fs.Create(p, "within", 3<<20); err != nil {
			t.Fatal(err)
		}
		_, err := fs.Create(p, "past", 2<<20)
		if !errors.Is(err, broker.ErrQuota) {
			t.Errorf("create past the quota: %v, want ErrQuota", err)
		}
		if remotedb.Retryable(err) {
			t.Error("quota denial must not be retryable")
		}
		if st := b.TenantStats()["oltp"]; st.HeldMRs != 3 || st.Denies != 1 {
			t.Errorf("tenant stats: %+v, want 3 MRs held and 1 denial", st)
		}
		fs.CloseAll(p)
	})
	k.Run(time.Minute)
}

func TestOptionsConstructors(t *testing.T) {
	err := remotedb.RunInSim(1, time.Hour, func(p *remotedb.Proc) error {
		bed, err := remotedb.NewTestBed(p, remotedb.DesignCustom,
			remotedb.WithStripeSize(4<<20),
			remotedb.WithLeaseTTL(500*time.Millisecond),
			remotedb.WithExpirySweep(100*time.Millisecond),
			remotedb.WithRetryPolicy(remotedb.DefaultRetryPolicy()),
			remotedb.WithRemoteServers(2),
			remotedb.WithRecovery(true))
		if err != nil {
			return err
		}
		defer bed.Close(p)
		if bed.Cfg.MRBytes != 4<<20 {
			t.Errorf("stripe size: got %d", bed.Cfg.MRBytes)
		}
		if bed.Cfg.LeaseTTL != 500*time.Millisecond {
			t.Errorf("lease TTL: got %v", bed.Cfg.LeaseTTL)
		}
		if len(bed.Mems) != 2 {
			t.Errorf("remote servers: got %d", len(bed.Mems))
		}
		// The bed works: remote BPExt file exists and is striped at the
		// configured MR size.
		f, ok := bed.FS.Lookup("bpext")
		if !ok {
			t.Fatal("bpext file missing")
		}
		if want := int(bed.Cfg.BPExtBytes / (4 << 20)); f.Stripes() != want {
			t.Errorf("stripes: got %d want %d", f.Stripes(), want)
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestKernelCloseThroughFacade(t *testing.T) {
	k := remotedb.NewKernel(1)
	unwound := false
	k.Go("background", func(p *remotedb.Proc) {
		defer func() { unwound = true }()
		for {
			p.Sleep(time.Second)
		}
	})
	k.Run(10 * time.Second)
	if unwound {
		t.Fatal("background proc exited before Close")
	}
	k.Close()
	if !unwound {
		t.Fatal("Close returned with the background proc still parked")
	}
}
