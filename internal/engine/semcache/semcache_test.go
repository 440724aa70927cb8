package semcache

import (
	"testing"
	"time"

	"remotedb/internal/cluster"
	"remotedb/internal/engine/exec"
	"remotedb/internal/engine/row"
	"remotedb/internal/engine/tempdb"
	"remotedb/internal/engine/txn"
	"remotedb/internal/sim"
	"remotedb/internal/vfs"
)

func schema() *row.Schema {
	return row.NewSchema(
		row.Column{Name: "k", Type: row.Int64},
		row.Column{Name: "v", Type: row.Float64},
	)
}

func values(n int) *exec.Values {
	var rows []row.Tuple
	for i := 0; i < n; i++ {
		rows = append(rows, row.Tuple{int64(i), float64(i) * 2})
	}
	return &exec.Values{Rows: rows, Sch: schema()}
}

// rig returns a cache over local mem files plus a ctx and log manager.
func rig(k *sim.Kernel, p *sim.Proc) (*Cache, *exec.Ctx, *txn.LogManager) {
	cfg := cluster.DefaultConfig()
	cfg.MemoryBytes = 1 << 30
	s := cluster.NewServer(k, "db", cfg)
	lm := txn.New(k, vfs.NewMemFile("log"))
	factory := func(p *sim.Proc, name string, size int64) (vfs.File, error) {
		return vfs.NewMemFile(name), nil
	}
	c := New(factory, lm)
	ctx := &exec.Ctx{P: p, Server: s, Temp: tempdb.New(vfs.NewMemFile("td")), Grant: 1 << 30, CPU: exec.DefaultCPUProfile()}
	return c, ctx, lm
}

func TestBuildLookupScan(t *testing.T) {
	k := newKernel(t, 1)
	k.Go("t", func(p *sim.Proc) {
		c, ctx, _ := rig(k, p)
		e, err := c.Build(ctx, "mv1", "SELECT-SIG-1", values(100), PolicySync)
		if err != nil {
			t.Error(err)
			return
		}
		if e.Rows() != 100 {
			t.Errorf("rows = %d", e.Rows())
		}
		got, ok := c.Lookup("SELECT-SIG-1")
		if !ok || got != e {
			t.Error("lookup failed")
		}
		if _, ok := c.Lookup("other"); ok {
			t.Error("wrong signature matched")
		}
		op, err := e.Scan(ctx)
		if err != nil {
			t.Error(err)
			return
		}
		rows, err := collect(ctx, op)
		if err != nil || len(rows) != 100 {
			t.Errorf("scan rows=%d err=%v", len(rows), err)
			return
		}
		if rows[42][1].(float64) != 84 {
			t.Errorf("row 42 = %v", rows[42])
		}
	})
	k.Run(time.Minute)
}

func TestInvalidatePolicy(t *testing.T) {
	k := newKernel(t, 1)
	k.Go("t", func(p *sim.Proc) {
		c, ctx, _ := rig(k, p)
		e, _ := c.Build(ctx, "mv1", "sig", values(10), PolicyInvalidate)
		if err := c.ApplyUpdate(p, e, row.Tuple{int64(1), 3.0}); err != nil {
			t.Error(err)
		}
		if !e.Stale() {
			t.Error("entry should be stale after update under PolicyInvalidate")
		}
		if _, ok := c.Lookup("sig"); ok {
			t.Error("stale entry matched")
		}
		if _, err := e.Scan(ctx); err != ErrStale {
			t.Errorf("scan of stale entry: %v", err)
		}
	})
	k.Run(time.Minute)
}

func TestSyncPolicyAppends(t *testing.T) {
	k := newKernel(t, 1)
	k.Go("t", func(p *sim.Proc) {
		c, ctx, lm := rig(k, p)
		e, _ := c.Build(ctx, "mv1", "sig", values(10), PolicySync)
		appends := lm.Appends
		for i := 0; i < 5; i++ {
			if err := c.ApplyUpdate(p, e, row.Tuple{int64(100 + i), 1.0}); err != nil {
				t.Error(err)
				return
			}
		}
		if e.Rows() != 15 {
			t.Errorf("rows = %d", e.Rows())
		}
		if lm.Appends != appends+5 {
			t.Errorf("log appends = %d, want %d", lm.Appends, appends+5)
		}
		op, _ := e.Scan(ctx)
		rows, _ := collect(ctx, op)
		if len(rows) != 15 {
			t.Errorf("scan rows = %d", len(rows))
		}
	})
	k.Run(time.Minute)
}

func TestRecoveryReplaysTrailingUpdates(t *testing.T) {
	k := newKernel(t, 1)
	k.Go("t", func(p *sim.Proc) {
		c, ctx, lm := rig(k, p)
		e, _ := c.Build(ctx, "mv1", "sig", values(10), PolicySync)
		// Snapshot point.
		c.Checkpoint(e)
		var snapshot []row.Tuple
		op, _ := e.Scan(ctx)
		snapshot, _ = collect(ctx, op)

		// Trailing updates past the checkpoint.
		for i := 0; i < 7; i++ {
			c.ApplyUpdate(p, e, row.Tuple{int64(200 + i), 9.0})
		}
		lm.Commit(p, lm.NextLSN()-1)

		// Remote node dies.
		e.stale = true
		replayed, err := c.Recover(p, e, snapshot)
		if err != nil {
			t.Error(err)
			return
		}
		if replayed != 7 {
			t.Errorf("replayed = %d, want 7", replayed)
		}
		if e.Stale() {
			t.Error("recovered entry still stale")
		}
		op2, _ := e.Scan(ctx)
		rows, _ := collect(ctx, op2)
		if len(rows) != 17 {
			t.Errorf("rows after recovery = %d, want 17", len(rows))
		}
	})
	k.Run(time.Minute)
}

func TestRecoveryIgnoresOtherEntries(t *testing.T) {
	k := newKernel(t, 1)
	k.Go("t", func(p *sim.Proc) {
		c, ctx, lm := rig(k, p)
		e1, _ := c.Build(ctx, "mv1", "sig1", values(5), PolicySync)
		e2, _ := c.Build(ctx, "mv2", "sig2", values(5), PolicySync)
		c.Checkpoint(e1)
		c.ApplyUpdate(p, e1, row.Tuple{int64(50), 1.0})
		c.ApplyUpdate(p, e2, row.Tuple{int64(60), 1.0})
		lm.Commit(p, lm.NextLSN()-1)
		op, _ := e1.Scan(ctx)
		snap, _ := collect(ctx, op)
		// Roll e1 back to its checkpoint image for the test.
		snap = snap[:5]
		replayed, err := c.Recover(p, e1, snap)
		if err != nil || replayed != 1 {
			t.Errorf("replayed = %d err=%v, want 1 (only mv1 records)", replayed, err)
		}
	})
	k.Run(time.Minute)
}

func TestFailedBackingStoreInvalidates(t *testing.T) {
	k := newKernel(t, 1)
	k.Go("t", func(p *sim.Proc) {
		cfg := cluster.DefaultConfig()
		cfg.MemoryBytes = 1 << 30
		s := cluster.NewServer(k, "db", cfg)
		lm := txn.New(k, vfs.NewMemFile("log"))
		fail := false
		factory := func(p *sim.Proc, name string, size int64) (vfs.File, error) {
			if fail {
				return &failingFile{}, nil
			}
			return vfs.NewMemFile(name), nil
		}
		c := New(factory, lm)
		ctx := &exec.Ctx{P: p, Server: s, Temp: tempdb.New(vfs.NewMemFile("td")), Grant: 1 << 30, CPU: exec.DefaultCPUProfile()}
		e, _ := c.Build(ctx, "mv", "sig", values(5), PolicySync)
		// Swap the file for a failing one (simulates revoked lease).
		e.file = &failingFile{}
		if err := c.ApplyUpdate(p, e, row.Tuple{int64(9), 1.0}); err != nil {
			t.Errorf("update on dead store should invalidate, not error: %v", err)
		}
		if !e.Stale() {
			t.Error("entry should be stale")
		}
		_ = fail
	})
	k.Run(time.Minute)
}

type failingFile struct{}

func (f *failingFile) Name() string                                   { return "failing" }
func (f *failingFile) ReadAt(p *sim.Proc, b []byte, off int64) error  { return vfs.ErrUnavailable }
func (f *failingFile) WriteAt(p *sim.Proc, b []byte, off int64) error { return vfs.ErrUnavailable }
func (f *failingFile) Size() int64                                    { return 0 }
func (f *failingFile) Close(p *sim.Proc) error                        { return nil }

// collect drains an operator tree into a slice.
func collect(c *exec.Ctx, op exec.Op) ([]row.Tuple, error) {
	r, err := exec.Open(c, op)
	if err != nil {
		return nil, err
	}
	var out []row.Tuple
	for {
		t, ok, err := r.Next()
		if err != nil || !ok {
			if cerr := r.Close(); err == nil {
				err = cerr
			}
			return out, err
		}
		out = append(out, t)
	}
}
