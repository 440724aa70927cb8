package btree

import (
	"fmt"
	"testing"
	"time"

	"remotedb/internal/cluster"
	"remotedb/internal/engine/buffer"
	"remotedb/internal/engine/row"
	"remotedb/internal/hw/disk"
	"remotedb/internal/sim"
	"remotedb/internal/vfs"
)

// benchTree builds a tree with n entries on a null device and hands it
// to fn inside a simulation process.
func benchTree(b *testing.B, n int, fn func(p *sim.Proc, tr *Tree)) {
	b.Helper()
	k := newKernel(b, 1)
	cfg := cluster.DefaultConfig()
	cfg.MemoryBytes = 1 << 30
	s := cluster.NewServer(k, "db", cfg)
	k.Go("bench", func(p *sim.Proc) {
		bcfg := buffer.DefaultConfig(1 << 16)
		bcfg.WriterPeriod = 0
		bcfg.PageAccessCPU = 0
		bp, err := buffer.New(p, s, vfs.NewDeviceFile("d", disk.NullDevice{DeviceName: "null"}), bcfg)
		if err != nil {
			b.Error(err)
			return
		}
		tr, err := New(p, bp, "bench")
		if err != nil {
			b.Error(err)
			return
		}
		pairs := make([]Pair, n)
		for i := range pairs {
			pairs[i] = Pair{
				Key: row.EncodeKey(nil, int64(i)),
				Val: []byte(fmt.Sprintf("value-%d", i)),
			}
		}
		if err := tr.BulkLoad(p, pairs, 0.9); err != nil {
			b.Error(err)
			return
		}
		fn(p, tr)
	})
	k.Run(time.Hour)
}

func BenchmarkBTreeSearch(b *testing.B) {
	benchTree(b, 100000, func(p *sim.Proc, tr *Tree) {
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			key := row.EncodeKey(nil, int64(i%100000))
			if _, err := tr.Search(p, key); err != nil {
				b.Error(err)
				return
			}
		}
	})
}

func BenchmarkBTreeInsert(b *testing.B) {
	benchTree(b, 10000, func(p *sim.Proc, tr *Tree) {
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			key := row.EncodeKey(nil, int64(1000000+i))
			if err := tr.Insert(p, key, []byte("benchval")); err != nil {
				b.Error(err)
				return
			}
		}
	})
}

func BenchmarkBTreeScan1000(b *testing.B) {
	benchTree(b, 100000, func(p *sim.Proc, tr *Tree) {
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			from := row.EncodeKey(nil, int64((i*1000)%90000))
			to := row.EncodeKey(nil, int64((i*1000)%90000+1000))
			if _, err := tr.ScanRange(p, from, to, 0); err != nil {
				b.Error(err)
				return
			}
		}
	})
}

func BenchmarkBulkLoad100K(b *testing.B) {
	for i := 0; i < b.N; i++ {
		benchTree(b, 100000, func(p *sim.Proc, tr *Tree) {})
	}
}

// BenchmarkScanRange100 is the paper's RangeScan inner loop: 100
// clustered rows from resident pages.
func BenchmarkScanRange100(b *testing.B) {
	benchTree(b, 100000, func(p *sim.Proc, tr *Tree) {
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			start := int64((i * 100) % 99000)
			pairs, err := tr.ScanRange(p, row.EncodeKey(nil, start), row.EncodeKey(nil, start+100), 0)
			if err != nil || len(pairs) != 100 {
				b.Errorf("scan at %d: %d pairs, %v", start, len(pairs), err)
				return
			}
		}
	})
}

// BenchmarkVisitRange100 is the RangeScan aggregate's inner loop behind
// fig9–13 and fig16: VisitRange over 100 clustered rows from resident
// pages, each handed to fn in place.
func BenchmarkVisitRange100(b *testing.B) {
	benchTree(b, 100000, func(p *sim.Proc, tr *Tree) {
		bounds := make([][]byte, 991) // every 100th key, encoded up front
		for j := range bounds {
			bounds[j] = row.EncodeKey(nil, int64(j*100))
		}
		rows, bytes := 0, 0
		sum := func(pr Pair) error {
			rows++
			bytes += len(pr.Val)
			return nil
		}
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			j := i % 990
			rows = 0
			if err := tr.VisitRange(p, bounds[j], bounds[j+1], sum); err != nil || rows != 100 {
				b.Errorf("visit at %d: %d rows, %v", j*100, rows, err)
				return
			}
		}
		_ = bytes
	})
}

// BenchmarkScanExtensionResident walks 64 leaves that only the extension
// holds, each read costing 13 µs of virtual time; an op is one such scan.
// Readahead windows are in flight ahead of the cursor, so allocs/op must
// not grow with the number of windows a scan issues. sim-us/leaf is the
// virtual time the scan spends per leaf.
func BenchmarkScanExtensionResident(b *testing.B) {
	k := newKernel(b, 1)
	newExtTree(b, k, 13*time.Microsecond, func(p *sim.Proc, et *extTree) {
		b.ReportAllocs()
		b.ResetTimer()
		t0 := p.Now()
		for i := 0; i < b.N; i++ {
			et.walk(b, p, i, nil)
		}
		b.StopTimer()
		b.ReportMetric(float64(p.Now()-t0)/float64(time.Microsecond)/float64(b.N*rangeLeaves), "sim-us/leaf")
	})
}

// BenchmarkIteratorNext walks the whole tree through one iterator; an op
// is one entry.
func BenchmarkIteratorNext(b *testing.B) {
	benchTree(b, 100000, func(p *sim.Proc, tr *Tree) {
		b.ReportAllocs()
		b.ResetTimer()
		for n := 0; n < b.N; {
			it, err := tr.Scan(p, nil)
			if err != nil {
				b.Error(err)
				return
			}
			for ; n < b.N; n++ {
				if _, ok, err := it.Next(p); err != nil {
					b.Error(err)
					return
				} else if !ok {
					break
				}
			}
		}
	})
}
