// Facade-level tests: the unified error taxonomy must be classifiable
// with errors.Is against this package alone, wherever in the stack the
// error was produced, and the functional-options constructors must
// assemble working objects.
package remotedb_test

import (
	"errors"
	"fmt"
	"go/ast"
	"go/parser"
	"go/token"
	"strings"
	"testing"
	"time"

	"remotedb"
	"remotedb/internal/broker"
	"remotedb/internal/core"
	"remotedb/internal/engine/exec"
	"remotedb/internal/engine/row"
	"remotedb/internal/engine/semcache"
	"remotedb/internal/vfs"
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

// optionCase is one With... option and what it must do to each layer it
// configures. A nil check means the option does not configure that
// layer; notBed marks a setting the design decides for NewTestBed.
type optionCase struct {
	name   string
	opt    remotedb.Option
	brk    func(p *remotedb.Proc, b *remotedb.BrokerCluster) error
	fs     func(fs *remotedb.RemoteFS) error
	eng    func(p *remotedb.Proc, e *remotedb.Engine) error
	bed    func(bed *remotedb.Bed) error // the bed's own geometry
	notBed bool
}

func want[T comparable](what string, got, want T) error {
	if got != want {
		return fmt.Errorf("%s: got %v, want %v", what, got, want)
	}
	return nil
}

// oneTable creates an empty one-column table in e's catalog.
func oneTable(p *remotedb.Proc, e *remotedb.Engine) (*remotedb.Table, error) {
	return e.Catalog.CreateTable(p, "t", row.NewSchema(row.Column{Name: "k", Type: row.Int64}), "k")
}

// bpextStripes is the stripe count of the bed's extension file.
func bpextStripes(bed *remotedb.Bed) int {
	f, ok := bed.FS.Lookup("bpext")
	if !ok {
		return 0
	}
	return f.Stripes()
}

func optionCases() []optionCase {
	var salvaged bool
	salvage := func(*remotedb.Proc, *core.File, int64, int64) error { salvaged = true; return nil }
	var semFiles int
	semFactory := func(p *remotedb.Proc, name string, size int64) (vfs.File, error) {
		semFiles++
		return vfs.NewMemFile(name), nil
	}
	rp := remotedb.DefaultRetryPolicy()
	rp.MaxAttempts = 7
	return []optionCase{
		{name: "StripeSize", opt: remotedb.WithStripeSize(4 << 20),
			bed: func(bed *remotedb.Bed) error { return want("bpext stripes", bpextStripes(bed), 4) }},
		{name: "LeaseTTL", opt: remotedb.WithLeaseTTL(500 * time.Millisecond),
			brk: func(_ *remotedb.Proc, b *remotedb.BrokerCluster) error {
				return want("lease TTL", b.LeaseTTL(), 500*time.Millisecond)
			}},
		{name: "ExpirySweep", opt: remotedb.WithExpirySweep(100 * time.Millisecond),
			bed: func(bed *remotedb.Bed) error { return want("expiry sweep", bed.Cfg.ExpireEvery, 100*time.Millisecond) }},
		{name: "RetryPolicy", opt: remotedb.WithRetryPolicy(rp),
			fs: func(fs *remotedb.RemoteFS) error { return want("retry attempts", fs.Retry.MaxAttempts, 7) }},
		{name: "Salvage", opt: remotedb.WithSalvage(salvage), notBed: true,
			fs: func(fs *remotedb.RemoteFS) error {
				if fs.Salvage == nil {
					return errors.New("no salvage installed")
				}
				return want("salvage ran", fs.Salvage(nil, nil, 0, 0) == nil && salvaged, true)
			}},
		{name: "BufferFrames", opt: remotedb.WithBufferFrames(1024),
			eng: func(_ *remotedb.Proc, e *remotedb.Engine) error { return want("frames", e.BP.Frames(), 1024) }},
		{name: "BPExtSlots", opt: remotedb.WithBPExtSlots(64), notBed: true,
			eng: func(_ *remotedb.Proc, e *remotedb.Engine) error {
				return want("extension attached", e.BP.Extension() != nil, true)
			}},
		{name: "Grant", opt: remotedb.WithGrant(1 << 20),
			eng: func(_ *remotedb.Proc, e *remotedb.Engine) error { return want("grant", e.Grant, int64(1<<20)) }},
		{name: "Protocol", opt: remotedb.WithProtocol(remotedb.ProtoSMB), notBed: true,
			fs: func(fs *remotedb.RemoteFS) error { return want("protocol", fs.Protocol, remotedb.ProtoSMB) }},
		{name: "Recovery", opt: remotedb.WithRecovery(false),
			fs: func(fs *remotedb.RemoteFS) error { return want("recover", fs.Recover, false) }},
		{name: "RemoteServers", opt: remotedb.WithRemoteServers(3),
			bed: func(bed *remotedb.Bed) error { return want("donors", len(bed.Mems), 3) }},
		{name: "Replication", opt: remotedb.WithReplication(2),
			fs: func(fs *remotedb.RemoteFS) error { return want("replication", fs.Replication, 2) }},
		{name: "Integrity", opt: remotedb.WithIntegrity(true),
			fs: func(fs *remotedb.RemoteFS) error { return want("integrity", fs.Integrity, true) }},
		{name: "ScrubEvery", opt: remotedb.WithScrubEvery(time.Second),
			fs: func(fs *remotedb.RemoteFS) error { return want("scrub cadence", fs.ScrubEvery, time.Second) }},
		{name: "BPExtBytes", opt: remotedb.WithBPExtBytes(8 << 20),
			bed: func(bed *remotedb.Bed) error { return want("bpext stripes", bpextStripes(bed), 1) }},
		{name: "SemCache", opt: remotedb.WithSemCache(semFactory), notBed: true,
			eng: func(p *remotedb.Proc, e *remotedb.Engine) error {
				tbl, err := oneTable(p, e)
				if err != nil {
					return err
				}
				if _, err := e.Cache.Build(e.NewCtx(p), "mv", "sig", &exec.TableScan{Table: tbl}, semcache.PolicySync); err != nil {
					return err
				}
				return want("semantic-cache files", semFiles, 1)
			}},
		{name: "DOP", opt: remotedb.WithDOP(2),
			eng: func(_ *remotedb.Proc, e *remotedb.Engine) error { return want("DOP", e.DOP, 2) }},
		{name: "Readahead", opt: remotedb.WithReadahead(1),
			eng: func(_ *remotedb.Proc, e *remotedb.Engine) error { return want("readahead", e.BP.ReadaheadPages(), 1) }},
		{name: "Pushdown", opt: remotedb.WithPushdown(true),
			eng: func(_ *remotedb.Proc, e *remotedb.Engine) error { return want("pushdown", e.Planner.Pushdown, true) }},
		{name: "BrokerShards", opt: remotedb.WithBrokerShards(2),
			brk: func(_ *remotedb.Proc, b *remotedb.BrokerCluster) error { return want("shards", b.ShardCount(), 2) }},
		{name: "HeartbeatEvery", opt: remotedb.WithHeartbeatEvery(50 * time.Millisecond),
			fs: func(fs *remotedb.RemoteFS) error { return want("heartbeat", fs.HeartbeatEvery, 50*time.Millisecond) }},
		{name: "Tenant", opt: remotedb.WithTenant("oltp"),
			fs: func(fs *remotedb.RemoteFS) error { return want("tenant", fs.Tenant, "oltp") }},
		{name: "TenantQuota", opt: remotedb.WithTenantQuota("oltp", 1),
			brk: func(p *remotedb.Proc, b *remotedb.BrokerCluster) error {
				_, err := b.Request(p, remotedb.RequestSpec{Holder: "db1", N: 1, Place: remotedb.PlaceSpread, Tenant: "oltp"})
				return want("request past the quota denied", errors.Is(err, broker.ErrQuota), true)
			}},
		{name: "DeadlineBudget", opt: remotedb.WithDeadlineBudget(5 * time.Millisecond),
			fs: func(fs *remotedb.RemoteFS) error { return want("FS budget", fs.DeadlineBudget, 5*time.Millisecond) },
			eng: func(_ *remotedb.Proc, e *remotedb.Engine) error {
				return want("per-query budget", e.Budget, 5*time.Millisecond)
			}},
		{name: "Hedging", opt: remotedb.WithHedging(true),
			fs: func(fs *remotedb.RemoteFS) error { return want("hedging", fs.Hedging, true) }},
		{name: "HedgeAfter", opt: remotedb.WithHedgeAfter(3 * time.Millisecond),
			fs: func(fs *remotedb.RemoteFS) error { return want("hedge trigger", fs.HedgeAfter, 3*time.Millisecond) }},
		{name: "HedgeRateCap", opt: remotedb.WithHedgeRateCap(0.2),
			fs: func(fs *remotedb.RemoteFS) error { return want("hedge cap", fs.HedgeRateCap, 0.2) }},
		{name: "HealthChecks", opt: remotedb.WithHealthChecks(true),
			fs: func(fs *remotedb.RemoteFS) error { return want("health checks", fs.HealthChecks, true) }},
	}
}

// Every option reaches its layer through every constructor that builds
// that layer: StartBroker the broker, MountRemoteFS the file system,
// StartEngine the engine, and NewTestBed all three plus its geometry.
func TestOptionsConstructors(t *testing.T) {
	for _, c := range optionCases() {
		t.Run(c.name, func(t *testing.T) {
			err := remotedb.RunInSim(1, time.Hour, func(p *remotedb.Proc) error {
				cl := remotedb.NewCluster(p.Kernel())
				db := cl.AddServer("db1", remotedb.DefaultServerConfig())
				if c.brk != nil {
					b := remotedb.StartBroker(p, remotedb.NewMetaStore(p.Kernel(), 10*time.Microsecond), c.opt)
					if _, err := b.AddProxy(p, cl.AddServer("mem1", remotedb.DefaultServerConfig()), 1<<20, 8); err != nil {
						return err
					}
					if err := c.brk(p, b); err != nil {
						t.Errorf("StartBroker: %v", err)
					}
				}
				if c.fs != nil {
					b := remotedb.StartBroker(p, remotedb.NewMetaStore(p.Kernel(), 10*time.Microsecond))
					client := remotedb.NewRemoteClient(p, db, remotedb.DefaultRemoteClientConfig())
					fs := remotedb.MountRemoteFS(p, b, client, c.opt)
					if err := c.fs(fs); err != nil {
						t.Errorf("MountRemoteFS: %v", err)
					}
					fs.CloseAll(p)
				}
				if c.eng != nil {
					files := remotedb.EngineFiles{
						Data:  remotedb.NewMemFile("data"),
						Log:   remotedb.NewMemFile("log"),
						Temp:  remotedb.NewMemFile("temp"),
						BPExt: remotedb.NewMemFile("bpext"),
					}
					e, err := remotedb.StartEngine(p, db, files, c.opt)
					if err != nil {
						return err
					}
					if err := c.eng(p, e); err != nil {
						t.Errorf("StartEngine: %v", err)
					}
					e.Shutdown()
				}
				if c.notBed {
					return nil
				}
				bed, err := remotedb.NewTestBed(p, remotedb.DesignCustom, remotedb.WithBPExtBytes(16<<20), c.opt)
				if err != nil {
					return err
				}
				defer bed.Close(p)
				report := func(err error) {
					if err != nil {
						t.Errorf("NewTestBed: %v", err)
					}
				}
				if c.brk != nil {
					report(c.brk(p, bed.Broker))
				}
				if c.fs != nil {
					report(c.fs(bed.FS))
				}
				if c.eng != nil {
					report(c.eng(p, bed.Eng))
				}
				if c.bed != nil {
					report(c.bed(bed))
				}
				return nil
			})
			if err != nil {
				t.Fatal(err)
			}
		})
	}
}

// Every exported With... function in options.go has a row in
// optionCases named after it (WithLeaseTTL -> "LeaseTTL"), and every row
// names an option that exists, so an option cannot land untested.
func TestEveryOptionHasACase(t *testing.T) {
	file, err := parser.ParseFile(token.NewFileSet(), "options.go", nil, 0)
	if err != nil {
		t.Fatal(err)
	}
	options := make(map[string]bool)
	for _, d := range file.Decls {
		if fn, ok := d.(*ast.FuncDecl); ok && fn.Recv == nil && fn.Name.IsExported() && strings.HasPrefix(fn.Name.Name, "With") {
			options[fn.Name.Name] = true
		}
	}
	cases := make(map[string]bool)
	for _, c := range optionCases() {
		cases["With"+c.name] = true
		if !options["With"+c.name] {
			t.Errorf("optionCases row %q names no With%s in options.go", c.name, c.name)
		}
	}
	for name := range options {
		if !cases[name] {
			t.Errorf("%s has no optionCases row", name)
		}
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
