package workload

import (
	"strings"
	"time"

	"remotedb/internal/engine"
	"remotedb/internal/engine/btree"
	"remotedb/internal/engine/catalog"
	"remotedb/internal/engine/row"
	"remotedb/internal/engine/txn"
	"remotedb/internal/sim"
)

// RangeScanConfig is the paper's RangeScan micro-benchmark (Section
// 5.2.1) scaled 1000x down: a 500K-row Customer table (~122 MB at ~245
// bytes/row), clustered on custkey, scanned in ranges of 100 keys by 80
// concurrent clients.
type RangeScanConfig struct {
	Rows           int     // table rows (paper: 500M; scaled: 500K)
	Range          int     // keys per query (paper: 100)
	UpdateFraction float64 // fraction of queries that update the range
	Clients        int     // concurrent query threads (paper: 80)

	// Hotspot switches the start-key distribution from uniform to the
	// priming experiment's 99%/20% hotspot with the given range size.
	Hotspot *Hotspot

	// QueryCPU is the per-query fixed CPU overhead (parse, plan cache
	// lookup, result marshalling); calibrated so the remote-memory
	// designs are CPU-bound at the paper's throughput (Figure 11b).
	QueryCPU time.Duration
}

// DefaultRangeScan mirrors Table 4's RangeScan row.
func DefaultRangeScan() RangeScanConfig {
	return RangeScanConfig{
		Rows:           500000,
		Range:          100,
		UpdateFraction: 0,
		Clients:        80,
		QueryCPU:       700 * time.Microsecond,
	}
}

// customerSchema matches TPC-H Customer (padded to ~245 bytes/row).
func customerSchema() *row.Schema {
	return row.NewSchema(
		row.Column{Name: "custkey", Type: row.Int64},
		row.Column{Name: "name", Type: row.String},
		row.Column{Name: "address", Type: row.String},
		row.Column{Name: "nationkey", Type: row.Int64},
		row.Column{Name: "phone", Type: row.String},
		row.Column{Name: "acctbal", Type: row.Float64},
		row.Column{Name: "mktsegment", Type: row.String},
		row.Column{Name: "comment", Type: row.String},
	)
}

// LoadCustomer builds the Customer table with cfg.Rows rows.
func LoadCustomer(p *sim.Proc, eng *engine.Engine, rows int) (*catalog.Table, error) {
	tbl, err := eng.Catalog.CreateTable(p, "customer", customerSchema(), "custkey")
	if err != nil {
		return nil, err
	}
	pad := strings.Repeat("x", 120)
	tuples := make([]row.Tuple, rows)
	for i := 0; i < rows; i++ {
		key := int64(i)
		tuples[i] = row.Tuple{
			key,
			"Customer#000000001",
			"addr-line-one-and-some",
			key % 25,
			"25-989-741-2988",
			float64(key%10000) / 100,
			"BUILDING",
			pad,
		}
	}
	if err := tbl.BulkLoad(p, tuples); err != nil {
		return nil, err
	}
	return tbl, nil
}

// RangeScan is a bound instance of the workload.
type RangeScan struct {
	Cfg RangeScanConfig
	Eng *engine.Engine
	Tbl *catalog.Table

	acctbalOrd int
}

// NewRangeScan loads the table and prepares the workload.
func NewRangeScan(p *sim.Proc, eng *engine.Engine, cfg RangeScanConfig) (*RangeScan, error) {
	tbl, err := LoadCustomer(p, eng, cfg.Rows)
	if err != nil {
		return nil, err
	}
	if err := eng.BP.FlushAll(p); err != nil {
		return nil, err
	}
	return &RangeScan{Cfg: cfg, Eng: eng, Tbl: tbl, acctbalOrd: tbl.Schema.MustOrdinal("acctbal")}, nil
}

// QueryOnce runs one range query (optionally with updates) at start.
func (w *RangeScan) QueryOnce(p *sim.Proc, start int64, update bool) error {
	w.Eng.Server.Work(p, w.Cfg.QueryCPU)
	from := row.EncodeKey(nil, start)
	to := row.EncodeKey(nil, start+int64(w.Cfg.Range))
	if !update {
		return w.aggregate(p, from, to)
	}
	// The updates go through the tree, so the range is collected first.
	pairs, err := w.Tbl.Clustered.ScanRange(p, from, to, 0)
	if err != nil {
		return err
	}
	var sum float64
	var lastLSN uint64
	var rowCPU time.Duration
	for _, pair := range pairs {
		v, err := row.DecodeColumn(w.Tbl.Schema, pair.Val, w.acctbalOrd)
		if err != nil {
			return err
		}
		rowCPU += rowScanCPU
		sum += v.(float64)
		t, err := row.Decode(w.Tbl.Schema, pair.Val)
		if err != nil {
			return err
		}
		t[w.acctbalOrd] = t[w.acctbalOrd].(float64) + 1
		img, err := row.Encode(nil, w.Tbl.Schema, t)
		if err != nil {
			return err
		}
		lastLSN = w.Eng.Log.Append(txn.RecUpdate, img[:32])
		if err := w.Tbl.Clustered.Update(p, pair.Key, img); err != nil {
			return err
		}
	}
	if rowCPU > 0 {
		w.Eng.Server.Work(p, rowCPU)
	}
	if lastLSN > 0 {
		lastLSN = w.Eng.Log.Append(txn.RecCommit, nil)
		if err := w.Eng.Log.Commit(p, lastLSN); err != nil {
			return err
		}
	}
	_ = sum
	return nil
}

// rowScanCPU is the simulated CPU a query spends on each row it reads.
const rowScanCPU = 300 * time.Nanosecond

// aggregate is a read-only query: it sums acctbal over [from, to)
// through the single-column fast path, straight off the pinned leaves.
func (w *RangeScan) aggregate(p *sim.Proc, from, to []byte) error {
	var sum float64
	rows := 0
	err := w.Tbl.Clustered.VisitRange(p, from, to, func(pair btree.Pair) error {
		v, err := row.DecodeColumn(w.Tbl.Schema, pair.Val, w.acctbalOrd)
		if err != nil {
			return err
		}
		rows++
		sum += v.(float64)
		return nil
	})
	if err != nil {
		return err
	}
	if rows > 0 {
		w.Eng.Server.Work(p, time.Duration(rows)*rowScanCPU)
	}
	_ = sum
	return nil
}

// Run drives the workload and returns the result.
func (w *RangeScan) Run(p *sim.Proc, warmup, measure time.Duration) *Result {
	n := int64(w.Cfg.Rows - w.Cfg.Range)
	return Drive(p, w.Cfg.Clients, warmup, measure, func(wp *sim.Proc, _ int) error {
		var start int64
		if w.Cfg.Hotspot != nil {
			start = w.Cfg.Hotspot.Pick(wp, n)
		} else {
			start = wp.Rand().Int63n(n)
		}
		update := w.Cfg.UpdateFraction > 0 && wp.Rand().Float64() < w.Cfg.UpdateFraction
		return w.QueryOnce(wp, start, update)
	})
}
