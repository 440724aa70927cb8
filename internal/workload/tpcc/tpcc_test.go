package tpcc

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

func tiny() Config {
	cfg := DefaultConfig()
	cfg.Warehouses = 2
	cfg.DistrictsPer = 2
	cfg.CustomersPer = 30
	cfg.Items = 200
	cfg.Clients = 10
	return cfg
}

func rig(t *testing.T, cfg Config, fn func(p *sim.Proc, db *DB)) {
	t.Helper()
	k := newKernel(t, 1)
	scfg := cluster.DefaultConfig()
	scfg.MemoryBytes = 1 << 30
	s := cluster.NewServer(k, "db", scfg)
	k.Go("t", func(p *sim.Proc) {
		ecfg := engine.DefaultConfig(8192)
		ecfg.Buffer = buffer.DefaultConfig(8192)
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
		db, err := Load(p, eng, cfg)
		if err != nil {
			t.Error(err)
			return
		}
		fn(p, db)
	})
	k.Run(100 * time.Hour)
}

func TestLoadSeedsHistory(t *testing.T) {
	rig(t, tiny(), func(p *sim.Proc, db *DB) {
		wd := db.Cfg.Warehouses * db.Cfg.DistrictsPer
		if got := db.Orders.Clustered.Entries; got != int64(wd*3000) {
			t.Errorf("orders = %d", got)
		}
		if got := db.NewOrder.Clustered.Entries; got != int64(wd*100) {
			t.Errorf("new_order = %d", got)
		}
		if got := db.Stock.Clustered.Entries; got != int64(db.Cfg.Warehouses*db.Cfg.Items) {
			t.Errorf("stock = %d", got)
		}
	})
}

func TestEachTransactionType(t *testing.T) {
	rig(t, tiny(), func(p *sim.Proc, db *DB) {
		if err := db.NewOrderTxn(p, 0, 0, 5); err != nil {
			t.Errorf("NewOrder: %v", err)
		}
		if err := db.PaymentTxn(p, 0, 1, 3); err != nil {
			t.Errorf("Payment: %v", err)
		}
		if err := db.OrderStatusTxn(p, 1, 0, 2); err != nil {
			t.Errorf("OrderStatus: %v", err)
		}
		if err := db.DeliveryTxn(p, 1); err != nil {
			t.Errorf("Delivery: %v", err)
		}
		if err := db.StockLevelTxn(p, 0, 0); err != nil {
			t.Errorf("StockLevel: %v", err)
		}
	})
}

func TestNewOrderAdvancesState(t *testing.T) {
	rig(t, tiny(), func(p *sim.Proc, db *DB) {
		before := db.Orders.Clustered.Entries
		for i := 0; i < 20; i++ {
			if err := db.NewOrderTxn(p, 0, 0, int64(i%30)); err != nil {
				t.Fatal(err)
			}
		}
		if db.Orders.Clustered.Entries != before+20 {
			t.Errorf("orders grew by %d, want 20", db.Orders.Clustered.Entries-before)
		}
		if db.OrderLine.Clustered.Entries < before*10 {
			t.Error("order lines missing")
		}
	})
}

func TestDeliveryConsumesNewOrders(t *testing.T) {
	rig(t, tiny(), func(p *sim.Proc, db *DB) {
		before := db.NewOrder.Clustered.Entries
		if err := db.DeliveryTxn(p, 0); err != nil {
			t.Fatal(err)
		}
		after := db.NewOrder.Clustered.Entries
		if after != before-int64(db.Cfg.DistrictsPer) {
			t.Errorf("new_order went %d -> %d, want -%d", before, after, db.Cfg.DistrictsPer)
		}
	})
}

func TestMixesRun(t *testing.T) {
	for _, readMostly := range []bool{false, true} {
		cfg := tiny()
		cfg.ReadMostly = readMostly
		rig(t, cfg, func(p *sim.Proc, db *DB) {
			for i := 0; i < 200; i++ {
				if err := db.RunOne(p); err != nil {
					t.Fatalf("mix readMostly=%v txn %d: %v", readMostly, i, err)
				}
			}
		})
	}
}
