package exec

import (
	"testing"
	"time"

	"remotedb/internal/cluster"
	"remotedb/internal/engine/buffer"
	"remotedb/internal/engine/catalog"
	"remotedb/internal/engine/row"
	"remotedb/internal/engine/tempdb"
	"remotedb/internal/hw/disk"
	"remotedb/internal/sim"
	"remotedb/internal/vfs"
)

// benchRig runs fn on a proc with a catalog on a null device and a ctx
// whose TempDB is a memory file.
func benchRig(b *testing.B, fn func(p *sim.Proc, cat *catalog.Catalog, ctx *Ctx)) {
	k := newKernel(b, 1)
	cfg := cluster.DefaultConfig()
	cfg.MemoryBytes = 1 << 30
	s := cluster.NewServer(k, "db", cfg)
	k.Go("bench", func(p *sim.Proc) {
		bcfg := buffer.DefaultConfig(8192)
		bcfg.WriterPeriod = 0
		bp, err := buffer.New(p, s, vfs.NewDeviceFile("data", disk.NullDevice{DeviceName: "null"}), bcfg)
		if err != nil {
			b.Error(err)
			return
		}
		fn(p, catalog.New(bp), &Ctx{P: p, Server: s, Temp: tempdb.New(vfs.NewMemFile("td")), Grant: 1 << 30, CPU: DefaultCPUProfile()})
	})
	k.Run(1000 * time.Hour)
}

// benchItems loads the 50 000-row line-item table the scan benchmarks
// read, resident in the pool; nil after a failure it reported.
func benchItems(b *testing.B, p *sim.Proc, cat *catalog.Catalog) *catalog.Table {
	tbl, err := cat.CreateTable(p, "lineitem", itemsSchema(), "orderkey", "linenum")
	if err != nil {
		b.Error(err)
		return nil
	}
	tuples := make([]row.Tuple, 50000)
	for i := range tuples {
		tuples[i] = row.Tuple{int64(i / 4), int64(i % 4), float64(i)}
	}
	if err := tbl.BulkLoad(p, tuples); err != nil {
		b.Error(err)
		return nil
	}
	return tbl
}

// reportScan reports a scan benchmark's host throughput and the virtual
// time one scan took: a parallel scan whose workers overlap takes less
// of it than the serial BenchmarkTableScanFilter.
func reportScan(b *testing.B, rows int, virtual time.Duration) {
	b.ReportMetric(float64(rows)*float64(b.N)/b.Elapsed().Seconds(), "rows/s")
	b.ReportMetric(float64(virtual)/float64(time.Microsecond)/float64(b.N), "sim-us/op")
}

// BenchmarkTableScanFilter scans a resident 50 000-row table with a
// predicate the scan evaluates on each row image, keeping one row in
// ten: iterator, predicate-column decode, survivor decode, per-row CPU
// accounting. An op is one full scan.
func BenchmarkTableScanFilter(b *testing.B) {
	const rows = 50000
	benchRig(b, func(p *sim.Proc, cat *catalog.Catalog, ctx *Ctx) {
		tbl := benchItems(b, p, cat)
		if tbl == nil {
			return
		}
		b.ReportAllocs()
		b.ResetTimer()
		t0 := p.Now()
		for i := 0; i < b.N; i++ {
			n, err := Run(ctx, &TableScan{Table: tbl, Preds: []ScanPred{{Ords: []int{0}, Fn: func(t row.Tuple) bool {
				return t[0].(int64)%10 == 0
			}}}})
			if err != nil || n != rows/10 {
				b.Errorf("scan: %d rows, %v", n, err)
				return
			}
		}
		reportScan(b, rows, p.Now()-t0)
	})
}

// BenchmarkParallelScan reads the same table with four range-partitioned
// scan workers merged through an Exchange: the producers' decode, the
// copy into each batch and the consumer's merge. An op is one full scan.
func BenchmarkParallelScan(b *testing.B) {
	const rows = 50000
	benchRig(b, func(p *sim.Proc, cat *catalog.Catalog, ctx *Ctx) {
		tbl := benchItems(b, p, cat)
		if tbl == nil {
			return
		}
		b.ReportAllocs()
		b.ResetTimer()
		t0 := p.Now()
		for i := 0; i < b.N; i++ {
			n, err := Run(ctx, &ParallelScan{Table: tbl, DOP: 4})
			if err != nil || n != rows {
				b.Errorf("parallel scan: %d rows, %v", n, err)
				return
			}
		}
		reportScan(b, rows, p.Now()-t0)
	})
}

// BenchmarkParallelScanFilter reads the same table at DOP 4 with a
// predicate each partition's scan evaluates on the row image, keeping
// one row in ten: only the kept rows are decoded, copied into a batch
// and merged. An op is one full scan.
func BenchmarkParallelScanFilter(b *testing.B) {
	const rows = 50000
	benchRig(b, func(p *sim.Proc, cat *catalog.Catalog, ctx *Ctx) {
		tbl := benchItems(b, p, cat)
		if tbl == nil {
			return
		}
		preds := []ScanPred{{Ords: []int{0}, Fn: func(t row.Tuple) bool { return t[0].(int64)%10 == 0 }}}
		b.ReportAllocs()
		b.ResetTimer()
		t0 := p.Now()
		for i := 0; i < b.N; i++ {
			n, err := Run(ctx, &ParallelScan{Table: tbl, DOP: 4, Preds: preds})
			if err != nil || n != rows/10 {
				b.Errorf("parallel scan: %d rows, %v", n, err)
				return
			}
		}
		reportScan(b, rows, p.Now()-t0)
	})
}

// BenchmarkHashJoinSpill joins 5 000 orders to their 15 000 line items
// under a grant the build side overflows at once, so every row of both
// sides goes through the grace path: encoded, appended to one of 16
// partition files, read back, decoded, joined. An op is one join.
func BenchmarkHashJoinSpill(b *testing.B) {
	const orders = 5000
	benchRig(b, func(p *sim.Proc, cat *catalog.Catalog, ctx *Ctx) {
		otbl, err := cat.CreateTable(p, "orders", ordersSchema(), "orderkey")
		if err != nil {
			b.Error(err)
			return
		}
		itbl, err := cat.CreateTable(p, "lineitem", itemsSchema(), "orderkey", "linenum")
		if err != nil {
			b.Error(err)
			return
		}
		var orows, irows []row.Tuple
		for i := 0; i < orders; i++ {
			orows = append(orows, row.Tuple{int64(i), int64(i % 100), float64(i)})
			for l := 0; l < 3; l++ {
				irows = append(irows, row.Tuple{int64(i), int64(l), float64(i*10 + l)})
			}
		}
		if err := otbl.BulkLoad(p, orows); err != nil {
			b.Error(err)
			return
		}
		if err := itbl.BulkLoad(p, irows); err != nil {
			b.Error(err)
			return
		}
		ctx.Grant = 4 << 10
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			j := &HashJoin{
				Build: &TableScan{Table: otbl}, Probe: &TableScan{Table: itbl},
				BuildCols: []string{"orderkey"}, ProbeCols: []string{"orderkey"}, Partitions: 16,
			}
			n, err := Run(ctx, j)
			if err != nil || n != 3*orders || !j.Spilled() {
				b.Errorf("join: %d rows, spilled %v, %v", n, j.Spilled(), err)
				return
			}
		}
	})
}
