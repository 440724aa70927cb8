package core

import (
	"bytes"
	"errors"
	"fmt"
	"testing"
	"time"

	"remotedb/internal/broker"
	"remotedb/internal/broker/metastore"
	"remotedb/internal/cluster"
	"remotedb/internal/rmem"
	"remotedb/internal/sim"
	"remotedb/internal/vfs"
)

// env is the standard test rig: a DB server, n memory servers each with
// mrs MRs of 1 MiB, a broker, and an FS.
type env struct {
	k       *sim.Kernel
	db      *cluster.Server
	mems    []*cluster.Server
	b       *broker.Cluster
	proxies []*broker.Proxy
	fs      *FS
}

func newEnv(p *sim.Proc, n, mrs int, cfg Config) *env {
	return newEnvClient(p, n, mrs, cfg, rmem.DefaultClientConfig())
}

// newEnvClient is newEnv with the DB server's rmem client built from ccfg.
func newEnvClient(p *sim.Proc, n, mrs int, cfg Config, ccfg rmem.ClientConfig) *env {
	k := p.Kernel()
	e := &env{k: k}
	scfg := cluster.DefaultConfig()
	scfg.MemoryBytes = 64 << 20
	e.db = cluster.NewServer(k, "db1", scfg)
	store := metastore.New(k, 10*time.Microsecond)
	e.b = broker.NewCluster(p, store, 1, broker.DefaultConfig())
	for i := 0; i < n; i++ {
		m := cluster.NewServer(k, fmt.Sprintf("m%d", i+1), scfg)
		e.mems = append(e.mems, m)
		px, err := e.b.AddProxy(p, m, 1<<20, mrs)
		if err != nil {
			panic(err)
		}
		e.proxies = append(e.proxies, px)
	}
	client := rmem.NewClient(p, e.db, ccfg)
	e.fs = NewFS(p, e.b, client, cfg)
	return e
}

func TestCreateOpenReadWriteDelete(t *testing.T) {
	k := newKernel(t, 1)
	k.Go("t", func(p *sim.Proc) {
		e := newEnv(p, 2, 8, DefaultConfig())
		f, err := e.fs.Create(p, "bpext", 4<<20)
		if err != nil {
			t.Error(err)
			return
		}
		if err := f.OpenConn(p); err != nil {
			t.Error(err)
			return
		}
		data := bytes.Repeat([]byte{0x5A}, 8192)
		if err := f.WriteAt(p, data, 3<<20); err != nil {
			t.Error(err)
			return
		}
		got := make([]byte, 8192)
		if err := f.ReadAt(p, got, 3<<20); err != nil {
			t.Error(err)
			return
		}
		if !bytes.Equal(data, got) {
			t.Error("round trip corrupted")
		}
		if err := e.fs.Delete(p, "bpext"); err != nil {
			t.Error(err)
		}
		if e.b.ActiveLeases() != 0 {
			t.Errorf("leases leaked: %d", e.b.ActiveLeases())
		}
	})
	k.Run(time.Minute)
}

func TestCrossMRAccess(t *testing.T) {
	k := newKernel(t, 1)
	k.Go("t", func(p *sim.Proc) {
		e := newEnv(p, 2, 8, DefaultConfig())
		f, _ := e.fs.Create(p, "f", 4<<20)
		f.OpenConn(p)
		// Write spanning three 1 MiB MRs.
		data := make([]byte, 2<<20)
		for i := range data {
			data[i] = byte(i * 31)
		}
		off := int64(1<<20 - 4096)
		if err := f.WriteAt(p, data, off); err != nil {
			t.Error(err)
			return
		}
		got := make([]byte, len(data))
		if err := f.ReadAt(p, got, off); err != nil {
			t.Error(err)
			return
		}
		if !bytes.Equal(data, got) {
			t.Error("cross-MR round trip corrupted")
		}
	})
	k.Run(time.Minute)
}

func TestSpreadAcrossServers(t *testing.T) {
	k := newKernel(t, 1)
	k.Go("t", func(p *sim.Proc) {
		e := newEnv(p, 4, 8, DefaultConfig())
		f, _ := e.fs.Create(p, "f", 8<<20)
		if got := len(f.Servers()); got != 4 {
			t.Errorf("file spread over %d servers, want 4", got)
		}
	})
	k.Run(time.Minute)
}

func TestBoundsChecks(t *testing.T) {
	k := newKernel(t, 1)
	k.Go("t", func(p *sim.Proc) {
		e := newEnv(p, 1, 8, DefaultConfig())
		f, _ := e.fs.Create(p, "f", 1<<20)
		f.OpenConn(p)
		buf := make([]byte, 4096)
		if err := f.ReadAt(p, buf, 1<<20-100); !errors.Is(err, ErrTooLarge) {
			t.Errorf("read past EOF: %v", err)
		}
		if err := f.WriteAt(p, buf, -1); !errors.Is(err, ErrTooLarge) {
			t.Errorf("negative offset: %v", err)
		}
	})
	k.Run(time.Minute)
}

func TestIOWithoutOpenRejected(t *testing.T) {
	k := newKernel(t, 1)
	k.Go("t", func(p *sim.Proc) {
		e := newEnv(p, 1, 8, DefaultConfig())
		f, _ := e.fs.Create(p, "f", 1<<20)
		if err := f.ReadAt(p, make([]byte, 8), 0); !errors.Is(err, ErrNotOpen) {
			t.Errorf("unopened read: %v", err)
		}
	})
	k.Run(time.Minute)
}

func TestDuplicateCreateAndMissingOpen(t *testing.T) {
	k := newKernel(t, 1)
	k.Go("t", func(p *sim.Proc) {
		e := newEnv(p, 1, 8, DefaultConfig())
		e.fs.Create(p, "f", 1<<20)
		if _, err := e.fs.Create(p, "f", 1<<20); !errors.Is(err, ErrExists) {
			t.Errorf("duplicate create: %v", err)
		}
		if _, err := e.fs.Open(p, "ghost"); !errors.Is(err, ErrNotFound) {
			t.Errorf("open missing: %v", err)
		}
		if err := e.fs.Delete(p, "ghost"); !errors.Is(err, ErrNotFound) {
			t.Errorf("delete missing: %v", err)
		}
	})
	k.Run(time.Minute)
}

func TestCreateFailsWithoutMemory(t *testing.T) {
	k := newKernel(t, 1)
	k.Go("t", func(p *sim.Proc) {
		e := newEnv(p, 1, 2, DefaultConfig())
		if _, err := e.fs.Create(p, "big", 10<<20); !errors.Is(err, ErrNoLeases) {
			t.Errorf("oversized create: %v", err)
		}
		if e.b.ActiveLeases() != 0 {
			t.Errorf("failed create leaked %d leases", e.b.ActiveLeases())
		}
	})
	k.Run(time.Minute)
}

func TestRemoteServerFailureTurnsFileUnavailable(t *testing.T) {
	k := newKernel(t, 1)
	k.Go("t", func(p *sim.Proc) {
		e := newEnv(p, 1, 8, DefaultConfig())
		f, _ := e.fs.Create(p, "f", 2<<20)
		f.OpenConn(p)
		e.b.FailProxy(e.proxies[0])
		err := f.ReadAt(p, make([]byte, 4096), 0)
		if !errors.Is(err, vfs.ErrUnavailable) {
			t.Errorf("read after server failure: %v", err)
		}
		// The only memory server is gone, so the background re-lease
		// exhausts its retry budget and the file turns terminal.
		p.Sleep(time.Second)
		if !f.Unavailable() {
			t.Error("file should be flagged unavailable")
		}
	})
	k.Run(time.Minute)
}

func TestAutoRenewKeepsFileAlive(t *testing.T) {
	k := newKernel(t, 1)
	k.Go("t", func(p *sim.Proc) {
		scfg := cluster.DefaultConfig()
		scfg.MemoryBytes = 64 << 20
		db := cluster.NewServer(k, "db1", scfg)
		m := cluster.NewServer(k, "m1", scfg)
		store := metastore.New(k, 10*time.Microsecond)
		b := broker.NewCluster(p, store, 1, broker.Config{LeaseTTL: 200 * time.Millisecond})
		b.AddProxy(p, m, 1<<20, 4)
		k.Go("expire", func(ep *sim.Proc) { b.ExpireLoop(ep, 50*time.Millisecond) })
		client := rmem.NewClient(p, db, rmem.DefaultClientConfig())
		fs := NewFS(p, b, client, DefaultConfig())
		f, err := fs.Create(p, "f", 1<<20)
		if err != nil {
			t.Error(err)
			return
		}
		f.OpenConn(p)
		p.Sleep(2 * time.Second) // many TTLs
		if err := f.ReadAt(p, make([]byte, 4096), 0); err != nil {
			t.Errorf("read after renewals failed: %v", err)
		}
		fs.Delete(p, "f")
	})
	k.Run(3 * time.Second)
}

// TestHeartbeatBatchesWholeCohort: the FS renews every lease it holds —
// across all of its files — with one batched heartbeat per tick, so the
// broker sees holder-sized batches, not per-lease round trips, and the
// loop winds down once the last file is gone.
func TestHeartbeatBatchesWholeCohort(t *testing.T) {
	k := newKernel(t, 1)
	k.Go("t", func(p *sim.Proc) {
		scfg := cluster.DefaultConfig()
		scfg.MemoryBytes = 64 << 20
		db := cluster.NewServer(k, "db1", scfg)
		m := cluster.NewServer(k, "m1", scfg)
		store := metastore.New(k, 10*time.Microsecond)
		b := broker.NewCluster(p, store, 1, broker.Config{LeaseTTL: 200 * time.Millisecond})
		b.AddProxy(p, m, 1<<20, 8)
		k.Go("expire", func(ep *sim.Proc) { b.ExpireLoop(ep, 50*time.Millisecond) })
		defer b.StopExpireLoop()
		client := rmem.NewClient(p, db, rmem.DefaultClientConfig())
		cfg := DefaultConfig()
		cfg.HeartbeatEvery = 60 * time.Millisecond
		fs := NewFS(p, b, client, cfg)
		f1, err := fs.Create(p, "f1", 2<<20)
		if err != nil {
			t.Error(err)
			return
		}
		f2, err := fs.Create(p, "f2", 3<<20)
		if err != nil {
			t.Error(err)
			return
		}
		f1.OpenConn(p)
		f2.OpenConn(p)
		p.Sleep(time.Second) // many TTLs, many heartbeats
		if err := f1.ReadAt(p, make([]byte, 4096), 0); err != nil {
			t.Errorf("f1 read after heartbeats: %v", err)
		}
		if err := f2.ReadAt(p, make([]byte, 4096), 0); err != nil {
			t.Errorf("f2 read after heartbeats: %v", err)
		}
		if fs.Heartbeats == 0 {
			t.Error("no heartbeat rounds recorded")
		}
		hb := b.HeartbeatBatch()
		if hb.N != fs.Heartbeats {
			t.Errorf("broker saw %d batches for %d heartbeat rounds", hb.N, fs.Heartbeats)
		}
		// Both files' leases (2 + 3 MRs) renew in one batch per round.
		if hb.Mean() != 5 {
			t.Errorf("mean batch = %.1f leases, want the whole 5-lease cohort", hb.Mean())
		}
		fs.Delete(p, "f1")
		fs.Delete(p, "f2")
		// The heartbeat loop must exit now that no file is active, or
		// k.Run would never drain the event queue.
	})
	k.Run(10 * time.Second)
}

func TestLeaseExpiryWithoutRenewal(t *testing.T) {
	k := newKernel(t, 1)
	k.Go("t", func(p *sim.Proc) {
		scfg := cluster.DefaultConfig()
		scfg.MemoryBytes = 64 << 20
		db := cluster.NewServer(k, "db1", scfg)
		m := cluster.NewServer(k, "m1", scfg)
		store := metastore.New(k, 10*time.Microsecond)
		b := broker.NewCluster(p, store, 1, broker.Config{LeaseTTL: 100 * time.Millisecond})
		b.AddProxy(p, m, 1<<20, 4)
		k.Go("expire", func(ep *sim.Proc) { b.ExpireLoop(ep, 20*time.Millisecond) })
		client := rmem.NewClient(p, db, rmem.DefaultClientConfig())
		cfg := DefaultConfig()
		cfg.HeartbeatEvery = time.Second // first renewal long after the 100 ms TTL
		fs := NewFS(p, b, client, cfg)
		f, _ := fs.Create(p, "f", 1<<20)
		f.OpenConn(p)
		p.Sleep(500 * time.Millisecond)
		err := f.ReadAt(p, make([]byte, 4096), 0)
		if !errors.Is(err, vfs.ErrUnavailable) {
			t.Errorf("read on expired lease: %v", err)
		}
	})
	k.Run(time.Second)
}

func TestConnectCostChargedPerServer(t *testing.T) {
	k := newKernel(t, 1)
	var elapsed time.Duration
	k.Go("t", func(p *sim.Proc) {
		e := newEnv(p, 3, 8, DefaultConfig())
		f, _ := e.fs.Create(p, "f", 3<<20)
		start := p.Now()
		f.OpenConn(p)
		elapsed = p.Now() - start
	})
	k.Run(time.Minute)
	if elapsed != 3*ConnectCost {
		t.Fatalf("open cost = %v, want %v", elapsed, 3*ConnectCost)
	}
}
