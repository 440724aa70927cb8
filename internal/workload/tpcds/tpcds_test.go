package tpcds

import (
	"testing"
	"time"

	"remotedb/internal/cluster"
	"remotedb/internal/engine"
	"remotedb/internal/engine/buffer"
	"remotedb/internal/hw/disk"
	"remotedb/internal/sim"
	"remotedb/internal/vfs"
)

func rig(t *testing.T, sf float64, fn func(p *sim.Proc, eng *engine.Engine, db *DB)) {
	t.Helper()
	k := newKernel(t, 1)
	cfg := cluster.DefaultConfig()
	cfg.MemoryBytes = 1 << 30
	s := cluster.NewServer(k, "db", cfg)
	k.Go("t", func(p *sim.Proc) {
		ecfg := engine.DefaultConfig(16384)
		ecfg.Buffer = buffer.DefaultConfig(16384)
		ecfg.Buffer.WriterPeriod = 0
		ecfg.Buffer.PageAccessCPU = 0
		eng, err := engine.New(p, s, engine.Files{
			Data: vfs.NewDeviceFile("data", disk.NullDevice{DeviceName: "null"}),
			Log:  vfs.NewMemFile("log"),
			Temp: vfs.NewMemFile("temp"),
		}, ecfg)
		if err != nil {
			t.Error(err)
			return
		}
		db, err := Load(p, eng, sf)
		if err != nil {
			t.Error(err)
			return
		}
		fn(p, eng, db)
	})
	k.Run(100 * time.Hour)
}

func TestQueryFamilyDeterministic(t *testing.T) {
	a := Queries()
	b := Queries()
	if len(a) != 50 || len(b) != 50 {
		t.Fatalf("family size %d/%d", len(a), len(b))
	}
	for i := range a {
		if a[i].Name != b[i].Name {
			t.Fatalf("template %d differs: %q vs %q", i, a[i].Name, b[i].Name)
		}
	}
}

func TestAllTemplatesExecute(t *testing.T) {
	rig(t, 0.003, func(p *sim.Proc, eng *engine.Engine, db *DB) {
		for _, q := range Queries() {
			ctx := eng.NewCtx(p)
			if err := q.Run(ctx, db); err != nil {
				t.Errorf("%s failed: %v", q.Name, err)
			}
		}
	})
}

func TestSelectivityAffectsRows(t *testing.T) {
	rig(t, 0.01, func(p *sim.Proc, eng *engine.Engine, db *DB) {
		// Templates are parameterized by selectivity; higher selectivity
		// must take longer (more rows flow through the joins).
		qs := Queries()
		var loSel, hiSel *Query
		for i := range qs {
			if loSel == nil && qs[i].Name[13:22] == "sel=0.001" {
				loSel = &qs[i]
			}
			if hiSel == nil && qs[i].Name[13:22] == "sel=0.300" {
				hiSel = &qs[i]
			}
		}
		if loSel == nil || hiSel == nil {
			t.Skip("templates not found by name")
		}
		t0 := p.Now()
		if err := loSel.Run(eng.NewCtx(p), db); err != nil {
			t.Fatal(err)
		}
		loTime := p.Now() - t0
		t0 = p.Now()
		if err := hiSel.Run(eng.NewCtx(p), db); err != nil {
			t.Fatal(err)
		}
		hiTime := p.Now() - t0
		if hiTime <= loTime {
			t.Errorf("sel=0.3 (%v) should cost more than sel=0.001 (%v)", hiTime, loTime)
		}
	})
}
