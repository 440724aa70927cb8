package tempdb

import (
	"testing"
	"time"

	"remotedb/internal/sim"
	"remotedb/internal/vfs"
)

// BenchmarkSpillRoundTrip1MB writes 1 MB of 1 KB records through one
// TempDB, forces it out, reads it back and releases it — a hash-join
// partition's life.
func BenchmarkSpillRoundTrip1MB(b *testing.B) {
	k := newKernel(b, 1)
	k.Go("bench", func(p *sim.Proc) {
		td := New(vfs.NewMemFile("tempdb"))
		rec := make([]byte, 1020) // 1 KB with its length prefix
		b.SetBytes(1 << 20)
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			f := td.NewFile("part")
			for j := 0; j < 1024; j++ {
				if err := f.Append(p, rec); err != nil {
					b.Error(err)
					return
				}
			}
			if err := f.Flush(p); err != nil {
				b.Error(err)
				return
			}
			r := f.NewReader()
			n := 0
			for {
				_, ok, err := r.Next(p)
				if err != nil {
					b.Error(err)
					return
				}
				if !ok {
					break
				}
				n++
			}
			if n != 1024 {
				b.Errorf("read back %d records", n)
				return
			}
			f.Release()
		}
	})
	k.Run(time.Hour)
}
