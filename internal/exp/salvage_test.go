package exp

import (
	"fmt"
	"reflect"
	"testing"
	"time"

	"remotedb/internal/engine/exec"
	"remotedb/internal/engine/row"
	"remotedb/internal/engine/semcache"
	"remotedb/internal/engine/txn"
	"remotedb/internal/sim"
)

// A remote bed installs the semantic cache's in-place REDO rebuild (§6.3)
// as its file system's default salvage. Revoking every stripe of an MV's
// file must re-lease the stripes and rebuild the MV into the same file
// from its checkpoint snapshot plus the WAL records logged after it.
func TestSemCacheSalvageRebuildsInPlace(t *testing.T) {
	const before, after = 200, 100 // rows at the checkpoint, rows logged past it
	err := RunInSim(1, time.Hour, func(p *sim.Proc) error {
		cfg := DefaultBedConfig(DesignCustom)
		cfg.BPExtBytes = 0
		bed, err := NewBed(p, cfg)
		if err != nil {
			return err
		}
		defer bed.Close(p)
		sch := row.NewSchema(
			row.Column{Name: "k", Type: row.Int64},
			row.Column{Name: "v", Type: row.Float64},
		)
		base, err := bed.Eng.Catalog.CreateTable(p, "base", sch, "k")
		if err != nil {
			return err
		}
		tuple := func(i int) row.Tuple { return row.Tuple{int64(i), float64(i) / 2} }
		for i := 0; i < before; i++ {
			if err := base.Insert(p, tuple(i)); err != nil {
				return err
			}
		}
		cache, ctx := bed.Eng.Cache, bed.Eng.NewCtx(p)
		mv, err := cache.Build(ctx, "mv", "base-all", &exec.TableScan{Table: base}, semcache.PolicySync)
		if err != nil {
			return err
		}
		cache.Checkpoint(mv)
		for i := before; i < before+after; i++ {
			if err := base.Insert(p, tuple(i)); err != nil {
				return err
			}
			if err := cache.ApplyUpdate(p, mv, tuple(i)); err != nil {
				return err
			}
		}
		if err := bed.Eng.Log.Commit(p, bed.Eng.Log.Append(txn.RecCommit, nil)); err != nil {
			return err
		}

		bed.InjectFaults([]FaultEvent{{At: p.Now() + time.Millisecond, Kind: FaultRevokeFile, Name: "semcache-mv"}})
		for deadline := p.Now() + time.Second; bed.FS.Salvages == 0 && p.Now() < deadline; {
			p.Sleep(time.Millisecond)
		}
		if bed.FS.Restripes == 0 || bed.FS.Salvages == 0 {
			return fmt.Errorf("restripes %d, salvages %d: the revoked MV file was not repaired", bed.FS.Restripes, bed.FS.Salvages)
		}
		if cache.EntryForFile("semcache-mv") != mv {
			t.Error("the MV moved to a fresh file: the in-place rebuild was not taken")
		}
		if mv.Stale() {
			t.Error("the MV is stale after its salvage")
		}
		// RecoverInPlace rewrites the snapshot's rows and counts one more
		// row per replayed REDO record.
		if replayed := mv.Rows() - before; replayed != after {
			t.Errorf("RecoverInPlace replayed %d records, want %d", replayed, after)
		}
		want, err := collect(ctx, &exec.TableScan{Table: base})
		if err != nil {
			return err
		}
		op, err := mv.Scan(ctx)
		if err != nil {
			return err
		}
		got, err := collect(ctx, op)
		if err != nil {
			return err
		}
		if len(want) != before+after || !reflect.DeepEqual(got, want) {
			t.Errorf("MV returns %d rows, the base table %d (want %d); the rows differ", len(got), len(want), before+after)
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

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
