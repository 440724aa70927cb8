package tempdb

import (
	"fmt"
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

// BenchmarkSpillStreams writes 24 partition files through one TempDB at
// once, a record to each in turn, then reads each back and releases it:
// three grace joins' build sides in flight together. Once warm, every
// chunk and block buffer comes from the TempDB's lists.
func BenchmarkSpillStreams(b *testing.B) {
	k := newKernel(b, 1)
	k.Go("bench", func(p *sim.Proc) {
		td := New(vfs.NewMemFile("tempdb"))
		const streams, n = 24, 600 // 600 KB a stream: a block and a tail
		files := make([]*SpillFile, streams)
		for i := range files {
			files[i] = td.NewFile(fmt.Sprintf("part-%d", i))
		}
		rec := make([]byte, 1020)
		round := func() bool {
			for j := 0; j < n; j++ {
				for _, f := range files {
					if err := f.Append(p, rec); err != nil {
						b.Error(err)
						return false
					}
				}
			}
			for _, f := range files {
				if err := f.Flush(p); err != nil {
					b.Error(err)
					return false
				}
				r, got := f.NewReader(), 0
				for {
					_, ok, err := r.Next(p)
					if err != nil {
						b.Error(err)
						return false
					}
					if !ok {
						break
					}
					got++
				}
				if got != n {
					b.Errorf("read back %d records", got)
					return false
				}
				f.Release()
			}
			return true
		}
		if !round() { // warms the lists, the extents and the file
			return
		}
		b.SetBytes(streams * n * 1024)
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if !round() {
				return
			}
		}
	})
	k.Run(time.Hour)
}
