package catalog

import (
	"bytes"
	"reflect"
	"testing"
	"time"

	"remotedb/internal/cluster"
	"remotedb/internal/engine/buffer"
	"remotedb/internal/engine/row"
	"remotedb/internal/hw/disk"
	"remotedb/internal/sim"
	"remotedb/internal/vfs"
)

func custSchema() *row.Schema {
	return row.NewSchema(
		row.Column{Name: "custkey", Type: row.Int64},
		row.Column{Name: "name", Type: row.String},
		row.Column{Name: "acctbal", Type: row.Float64},
		row.Column{Name: "nation", Type: row.Int64},
	)
}

func rig(t *testing.T, fn func(p *sim.Proc, c *Catalog)) {
	t.Helper()
	k := newKernel(t, 1)
	cfg := cluster.DefaultConfig()
	cfg.MemoryBytes = 1 << 30
	s := cluster.NewServer(k, "db", cfg)
	k.Go("t", func(p *sim.Proc) {
		data := vfs.NewDeviceFile("data", disk.NullDevice{DeviceName: "null"})
		bcfg := buffer.DefaultConfig(4096)
		bcfg.WriterPeriod = 0
		bcfg.PageAccessCPU = 0
		bp, err := buffer.New(p, s, data, bcfg)
		if err != nil {
			t.Error(err)
			return
		}
		fn(p, New(bp))
	})
	k.Run(time.Minute)
}

func cust(i int) row.Tuple {
	return row.Tuple{int64(i), "customer", float64(i) * 1.5, int64(i % 25)}
}

func TestCRUD(t *testing.T) {
	rig(t, func(p *sim.Proc, c *Catalog) {
		tbl, err := c.CreateTable(p, "customer", custSchema(), "custkey")
		if err != nil {
			t.Error(err)
			return
		}
		for i := 0; i < 100; i++ {
			if err := tbl.Insert(p, cust(i)); err != nil {
				t.Error(err)
				return
			}
		}
		got, err := tbl.Get(p, int64(42))
		if err != nil {
			t.Error(err)
			return
		}
		if !reflect.DeepEqual(got, cust(42)) {
			t.Errorf("get = %v", got)
		}
		upd := cust(42)
		upd[2] = 999.5
		if err := tbl.Update(p, upd); err != nil {
			t.Error(err)
		}
		got, _ = tbl.Get(p, int64(42))
		if got[2].(float64) != 999.5 {
			t.Errorf("update lost: %v", got)
		}
		if err := tbl.Delete(p, int64(42)); err != nil {
			t.Error(err)
		}
		if _, err := tbl.Get(p, int64(42)); err != ErrNotFound {
			t.Errorf("deleted row: %v", err)
		}
	})
}

func TestSecondaryIndexMaintenance(t *testing.T) {
	rig(t, func(p *sim.Proc, c *Catalog) {
		tbl, _ := c.CreateTable(p, "customer", custSchema(), "custkey")
		for i := 0; i < 50; i++ {
			tbl.Insert(p, cust(i))
		}
		idx, err := c.CreateIndex(p, "ix_nation", "customer", "nation")
		if err != nil {
			t.Error(err)
			return
		}
		// Nation 3: customers 3, 28.
		from := row.EncodeKey(nil, int64(3))
		to := row.EncodeKey(nil, int64(4))
		pks, err := idx.SeekRange(p, from, to, 0)
		if err != nil {
			t.Error(err)
			return
		}
		if len(pks) != 2 {
			t.Errorf("nation 3 has %d rows, want 2", len(pks))
		}
		for _, pk := range pks {
			tuple, err := tbl.LookupRow(p, pk, nil)
			if err != nil || tuple[3].(int64) != 3 {
				t.Errorf("lookup %v %v", tuple, err)
			}
		}
		// Update moves a row to another nation.
		upd := cust(3)
		upd[3] = int64(7)
		tbl.Update(p, upd)
		pks, _ = idx.SeekRange(p, from, to, 0)
		if len(pks) != 1 {
			t.Errorf("after move, nation 3 has %d rows, want 1", len(pks))
		}
		// Delete removes index entries.
		tbl.Delete(p, int64(28))
		pks, _ = idx.SeekRange(p, from, to, 0)
		if len(pks) != 0 {
			t.Errorf("after delete, nation 3 has %d rows", len(pks))
		}
	})
}

func TestIndexBackfill(t *testing.T) {
	rig(t, func(p *sim.Proc, c *Catalog) {
		tbl, _ := c.CreateTable(p, "customer", custSchema(), "custkey")
		var rows []row.Tuple
		for i := 0; i < 500; i++ {
			rows = append(rows, cust(i))
		}
		tbl.BulkLoad(p, rows)
		idx, err := c.CreateIndex(p, "ix_nation", "customer", "nation")
		if err != nil {
			t.Error(err)
			return
		}
		if idx.Tree.Entries != 500 {
			t.Errorf("backfilled entries = %d", idx.Tree.Entries)
		}
		// The table spans several leaves and the backfill keeps every
		// primary key the iterator handed it: each must still be the key
		// of a row of the nation it is indexed under.
		if tbl.Clustered.Height() < 2 {
			t.Fatalf("table fits one leaf; the backfill crosses no leaf boundary")
		}
		for n := 0; n < 25; n++ {
			pks, err := idx.SeekRange(p, row.EncodeKey(nil, int64(n)), row.EncodeKey(nil, int64(n+1)), 0)
			if err != nil {
				t.Error(err)
				return
			}
			if len(pks) != 20 {
				t.Errorf("nation %d: %d index entries, want 20", n, len(pks))
			}
			for i, pk := range pks {
				if want := row.EncodeKey(nil, int64(n+25*i)); !bytes.Equal(pk, want) {
					t.Errorf("nation %d entry %d: primary key %x, want %x", n, i, pk, want)
				}
			}
		}
	})
}

func TestBulkLoadAndScan(t *testing.T) {
	rig(t, func(p *sim.Proc, c *Catalog) {
		tbl, _ := c.CreateTable(p, "customer", custSchema(), "custkey")
		var rows []row.Tuple
		for i := 999; i >= 0; i-- { // unsorted input
			rows = append(rows, cust(i))
		}
		if err := tbl.BulkLoad(p, rows); err != nil {
			t.Error(err)
			return
		}
		got, err := tbl.ScanRange(p, row.EncodeKey(nil, int64(100)), row.EncodeKey(nil, int64(110)), 0)
		if err != nil {
			t.Error(err)
			return
		}
		if len(got) != 10 || got[0][0].(int64) != 100 {
			t.Errorf("scan = %d rows starting %v", len(got), got[0][0])
		}
	})
}

func TestSchemaErrors(t *testing.T) {
	rig(t, func(p *sim.Proc, c *Catalog) {
		if _, err := c.CreateTable(p, "t", custSchema(), "nope"); err == nil {
			t.Error("bad pk column accepted")
		}
		c.CreateTable(p, "t", custSchema(), "custkey")
		if _, err := c.CreateTable(p, "t", custSchema(), "custkey"); err != ErrTableExists {
			t.Errorf("dup table: %v", err)
		}
		if _, err := c.Table("ghost"); err != ErrNoTable {
			t.Errorf("missing table: %v", err)
		}
		if _, err := c.CreateIndex(p, "ix", "t", "ghostcol"); err == nil {
			t.Error("bad index column accepted")
		}
		tbl, _ := c.Table("t")
		if _, err := tbl.Index("ghost"); err != ErrNoIndex {
			t.Errorf("missing index: %v", err)
		}
	})
}

func TestCompositePK(t *testing.T) {
	rig(t, func(p *sim.Proc, c *Catalog) {
		schema := row.NewSchema(
			row.Column{Name: "w", Type: row.Int64},
			row.Column{Name: "d", Type: row.Int64},
			row.Column{Name: "qty", Type: row.Int64},
		)
		tbl, _ := c.CreateTable(p, "stock", schema, "w", "d")
		tbl.Insert(p, row.Tuple{int64(1), int64(2), int64(10)})
		tbl.Insert(p, row.Tuple{int64(1), int64(3), int64(20)})
		tbl.Insert(p, row.Tuple{int64(2), int64(2), int64(30)})
		got, err := tbl.Get(p, int64(1), int64(3))
		if err != nil || got[2].(int64) != 20 {
			t.Errorf("composite get: %v %v", got, err)
		}
	})
}
