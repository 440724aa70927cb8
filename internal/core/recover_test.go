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

// faultEnv is env plus the knobs the recovery tests need: a custom
// broker config (short TTLs) and the metastore handle (partitions).
type faultEnv struct {
	env
	store *metastore.Store
}

func newFaultEnv(p *sim.Proc, n, mrs int, bcfg broker.Config, cfg Config) *faultEnv {
	k := p.Kernel()
	e := &faultEnv{env: env{k: k}}
	scfg := cluster.DefaultConfig()
	scfg.MemoryBytes = 64 << 20
	e.db = cluster.NewServer(k, "db1", scfg)
	e.store = metastore.New(k, 10*time.Microsecond)
	e.b = broker.NewCluster(p, e.store, 1, bcfg)
	for i := 0; i < n; i++ {
		m := cluster.NewServer(k, fmt.Sprintf("m%d", i+1), scfg)
		e.mems = append(e.mems, m)
		px, err := e.b.AddProxy(p, m, 1<<20, mrs)
		if err != nil {
			panic(err)
		}
		e.proxies = append(e.proxies, px)
	}
	client := rmem.NewClient(p, e.db, rmem.DefaultClientConfig())
	e.fs = NewFS(p, e.b, client, cfg)
	return e
}

// Revoking one stripe's lease degrades only that stripe: the survivors
// keep serving, the repair re-leases a replacement, and the salvage
// callback repopulates the range.
func TestStripeRepairAfterRevocation(t *testing.T) {
	k := newKernel(t, 1)
	k.Go("t", func(p *sim.Proc) {
		e := newFaultEnv(p, 2, 4, broker.DefaultConfig(), DefaultConfig())
		f, err := e.fs.Create(p, "f", 2<<20) // 2 stripes of 1 MiB
		if err != nil {
			t.Error(err)
			return
		}
		if err := f.OpenConn(p); err != nil {
			t.Error(err)
			return
		}
		f.SetSalvage(func(sp *sim.Proc, sf *File, off, n int64) error {
			return sf.WriteAt(sp, bytes.Repeat([]byte{0xAB}, int(n)), off)
		})
		if err := f.WriteAt(p, bytes.Repeat([]byte{0x11}, 8192), 1<<20); err != nil {
			t.Error(err)
			return
		}

		ids := f.LeaseIDs()
		if len(ids) != 2 {
			t.Errorf("stripes: got %d leases", len(ids))
			return
		}
		e.b.Revoke(ids[0])

		// First touch of the lost stripe notices the revocation: a
		// degraded, classified error — not silence, not a terminal state.
		buf := make([]byte, 4096)
		err = f.ReadAt(p, buf, 0)
		if !errors.Is(err, vfs.ErrUnavailable) {
			t.Errorf("read of lost stripe: %v, want ErrUnavailable class", err)
		}
		if !f.Degraded() || f.Unavailable() {
			t.Errorf("degraded=%v unavailable=%v, want true/false", f.Degraded(), f.Unavailable())
		}
		// The surviving stripe still serves.
		if err := f.ReadAt(p, buf, 1<<20); err != nil {
			t.Errorf("surviving stripe read: %v", err)
		} else if buf[0] != 0x11 {
			t.Errorf("surviving stripe corrupted: %#x", buf[0])
		}

		p.Sleep(time.Second) // background re-lease + salvage
		if f.Degraded() || f.Unavailable() {
			t.Errorf("after repair: degraded=%v unavailable=%v", f.Degraded(), f.Unavailable())
		}
		if e.fs.Restripes != 1 || e.fs.Salvages != 1 || e.fs.LostStripes != 1 {
			t.Errorf("restripes=%d salvages=%d lost=%d, want 1/1/1",
				e.fs.Restripes, e.fs.Salvages, e.fs.LostStripes)
		}
		if err := f.ReadAt(p, buf, 0); err != nil {
			t.Errorf("read after repair: %v", err)
		} else if buf[0] != 0xAB {
			t.Errorf("salvage did not repopulate: got %#x want 0xAB", buf[0])
		}
	})
	k.Run(time.Minute)
}

// With recovery disabled the old contract holds: the first revocation
// turns the whole file terminally unavailable.
func TestRecoveryDisabledIsTerminal(t *testing.T) {
	k := newKernel(t, 1)
	k.Go("t", func(p *sim.Proc) {
		cfg := DefaultConfig()
		cfg.Recover = false
		e := newFaultEnv(p, 2, 4, broker.DefaultConfig(), cfg)
		f, err := e.fs.Create(p, "f", 2<<20)
		if err != nil {
			t.Error(err)
			return
		}
		if err := f.OpenConn(p); err != nil {
			t.Error(err)
			return
		}
		e.b.Revoke(f.LeaseIDs()[0])
		if err := f.ReadAt(p, make([]byte, 4096), 0); !errors.Is(err, vfs.ErrUnavailable) {
			t.Errorf("read after revocation: %v", err)
		}
		if !f.Unavailable() {
			t.Error("file should be terminally unavailable with recovery off")
		}
		if e.fs.Restripes != 0 {
			t.Errorf("restripes=%d, want 0", e.fs.Restripes)
		}
	})
	k.Run(time.Minute)
}

// A metastore partition shorter than the retry budget must be invisible:
// the renew loop retries through it and the file never degrades.
func TestRenewRetriesThroughPartition(t *testing.T) {
	k := newKernel(t, 1)
	k.Go("t", func(p *sim.Proc) {
		bcfg := broker.Config{LeaseTTL: 200 * time.Millisecond}
		e := newFaultEnv(p, 2, 4, bcfg, DefaultConfig())
		f, err := e.fs.Create(p, "f", 2<<20)
		if err != nil {
			t.Error(err)
			return
		}
		if err := f.OpenConn(p); err != nil {
			t.Error(err)
			return
		}
		// The renew loop ticks at TTL/2 = 100ms. Partition the metastore
		// across one tick, narrower than the ~15ms default retry budget.
		p.Kernel().GoAt(p.Now()+95*time.Millisecond, "cut", func(fp *sim.Proc) {
			e.store.SetPartitioned(true)
		})
		p.Kernel().GoAt(p.Now()+104*time.Millisecond, "heal", func(fp *sim.Proc) {
			e.store.SetPartitioned(false)
		})
		p.Sleep(500 * time.Millisecond) // several renew cycles, incl. the cut one
		if f.Degraded() || f.Unavailable() {
			t.Errorf("file degraded by transient partition: degraded=%v unavailable=%v",
				f.Degraded(), f.Unavailable())
		}
		if e.fs.RenewRetries == 0 {
			t.Error("expected renew retries through the partition")
		}
		if e.fs.LostStripes != 0 {
			t.Errorf("lost stripes: %d, want 0", e.fs.LostStripes)
		}
		// Leases are still live afterwards.
		for _, reps := range f.leases {
			for _, l := range reps {
				if !l.Valid(p.Now()) {
					t.Error("lease expired despite retrying renew loop")
				}
			}
		}
	})
	k.Run(time.Minute)
}
