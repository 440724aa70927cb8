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

// BenchmarkTableScanFilter streams a resident 50 000-row table through a
// filter that keeps one row in ten: iterator, row decode, per-row CPU
// accounting. An op is one full scan.
func BenchmarkTableScanFilter(b *testing.B) {
	const rows = 50000
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
		tbl, err := catalog.New(bp).CreateTable(p, "lineitem", itemsSchema(), "orderkey", "linenum")
		if err != nil {
			b.Error(err)
			return
		}
		tuples := make([]row.Tuple, rows)
		for i := range tuples {
			tuples[i] = row.Tuple{int64(i / 4), int64(i % 4), float64(i)}
		}
		if err := tbl.BulkLoad(p, tuples); err != nil {
			b.Error(err)
			return
		}
		ctx := &Ctx{P: p, Server: s, Temp: tempdb.New(vfs.NewMemFile("td")), Grant: 1 << 30, CPU: DefaultCPUProfile()}
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			n, err := Run(ctx, &Filter{In: &TableScan{Table: tbl}, Pred: func(t row.Tuple) bool {
				return t[0].(int64)%10 == 0
			}})
			if err != nil || n != rows/10 {
				b.Errorf("scan: %d rows, %v", n, err)
				return
			}
		}
		b.ReportMetric(float64(rows)*float64(b.N)/b.Elapsed().Seconds(), "rows/s")
	})
	k.Run(1000 * time.Hour)
}
