package exp

import (
	"testing"
	"time"
)

// TestTPCHSmoke runs a query subset on the two headline designs and
// checks the paper's ordering.
func TestTPCHSmoke(t *testing.T) {
	prm := TPCHGeometry(false)
	prm.SF = 0.02
	prm.LocalMemBytes = 3 << 20
	prm.BPExtBytes = 32 << 20
	prm.Streams = 2
	prm.QueryIDs = []int{1, 3, 6, 10}
	if testing.Short() {
		prm.Streams = 1
		prm.QueryIDs = []int{1, 6}
	}
	base, err := RunTPCH(1, DesignHDDSSD, prm)
	if err != nil {
		t.Fatal(err)
	}
	cust, err := RunTPCH(1, DesignCustom, prm)
	if err != nil {
		t.Fatal(err)
	}
	t.Logf("HDD+SSD: %.1f q/h, Custom: %.1f q/h", base.QueriesPerHour, cust.QueriesPerHour)
	h := Improvements(base.QueryLatencies, cust.QueryLatencies)
	for id, f := range h.Factors {
		t.Logf("Q%d: %.2fx", id, f)
	}
	if cust.QueriesPerHour <= base.QueriesPerHour {
		t.Errorf("Custom (%.1f q/h) should beat HDD+SSD (%.1f q/h)", cust.QueriesPerHour, base.QueriesPerHour)
	}
}

func TestTPCCSmoke(t *testing.T) {
	prm := TPCCGeometry(false)
	prm.Cfg.Warehouses = 2
	prm.Cfg.Clients = 40
	prm.Measure = 500 * time.Millisecond
	if testing.Short() {
		prm.Cfg.Clients = 20
		prm.Measure = 250 * time.Millisecond
	}
	for _, rm := range []bool{false, true} {
		hdd, err := RunTPCC(1, DesignHDDSSD, rm, prm)
		if err != nil {
			t.Fatal(err)
		}
		cust, err := RunTPCC(1, DesignCustom, rm, prm)
		if err != nil {
			t.Fatal(err)
		}
		t.Logf("readMostly=%v: HDD+SSD %.0f tx/s, Custom %.0f tx/s", rm, hdd.Throughput, cust.Throughput)
	}
}
