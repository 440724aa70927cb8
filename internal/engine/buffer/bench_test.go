package buffer

import (
	"testing"
	"time"

	"remotedb/internal/engine/page"
	"remotedb/internal/sim"
	"remotedb/internal/vfs"
)

// benchPool hands fn a 64-frame pool over 512 pages, with an extension
// that holds them all, on files that take no virtual time: what is left
// is the pool's own bookkeeping.
func benchPool(b *testing.B, fn func(p *sim.Proc, bp *Pool, pages []uint64)) {
	b.Helper()
	k := newKernel(b, 1)
	s, data := nullRig(k)
	k.Go("bench", func(p *sim.Proc) {
		bp := newPool(p, s, data, 64, false)
		bp.AttachExtension(vfs.NewMemFile("ext"), 1024)
		pages := make([]uint64, 512)
		for i := range pages {
			h, no, err := bp.Allocate(p, page.TypeHeap)
			if err != nil {
				b.Error(err)
				return
			}
			pages[i] = no
			h.Release()
		}
		b.ReportAllocs()
		b.ResetTimer()
		fn(p, bp, pages)
	})
	k.Run(time.Hour)
}

func BenchmarkGetHit(b *testing.B) {
	benchPool(b, func(p *sim.Proc, bp *Pool, pages []uint64) {
		hot := pages[len(pages)-1]
		for i := 0; i < b.N; i++ {
			h, err := bp.Get(p, hot)
			if err != nil {
				b.Error(err)
				return
			}
			h.Release()
		}
	})
}

// BenchmarkGetExtHit faults clean pages in from the extension; each fault
// evicts a clean page the extension already holds, which costs nothing.
func BenchmarkGetExtHit(b *testing.B) {
	benchPool(b, func(p *sim.Proc, bp *Pool, pages []uint64) {
		for i := 0; i < b.N; i++ {
			h, err := bp.Get(p, pages[i%len(pages)])
			if err != nil {
				b.Error(err)
				return
			}
			h.Release()
		}
		if bp.Stats.DiskReads > 0 {
			b.Errorf("%d faults fell to the data file", bp.Stats.DiskReads)
		}
	})
}

// BenchmarkEvictToExtension dirties every page it faults in, so each
// fault evicts a dirty page: write-back, image, queue, vectored put.
func BenchmarkEvictToExtension(b *testing.B) {
	benchPool(b, func(p *sim.Proc, bp *Pool, pages []uint64) {
		for i := 0; i < b.N; i++ {
			h, err := bp.Get(p, pages[i%len(pages)])
			if err != nil {
				b.Error(err)
				return
			}
			h.MarkDirty(0)
			h.Release()
		}
	})
}

// BenchmarkEvictExtensionResident evicts a clean frame whose page the
// extension already maps: no image, no queue entry, no virtual I/O.
func BenchmarkEvictExtensionResident(b *testing.B) {
	benchPool(b, func(p *sim.Proc, bp *Pool, pages []uint64) {
		h, err := bp.Get(p, pages[0])
		if err != nil {
			b.Error(err)
			return
		}
		idx := h.idx
		h.Release()
		f := &bp.frames[idx]
		if _, mapped := bp.ext.table[f.pageNo]; !mapped || !f.extCopy {
			b.Errorf("page %d did not come from an extension slot", f.pageNo)
			return
		}
		start, stats, queued := p.Now(), bp.Stats, len(bp.extQueue)
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if ok, err := bp.evict(p, idx); !ok || err != nil {
				b.Errorf("evict: %v, %v", ok, err)
				return
			}
			// Put the frame back as it was: evict touches no policy state.
			f.valid = true
			bp.table[f.pageNo] = idx
		}
		b.StopTimer()
		if p.Now() != start || bp.Stats.ExtWrites != stats.ExtWrites || len(bp.extQueue) != queued {
			b.Errorf("evictions took %v of virtual time, wrote %d pages, queued %d",
				p.Now()-start, bp.Stats.ExtWrites-stats.ExtWrites, len(bp.extQueue)-queued)
		}
	})
}

// BenchmarkEvictDirtyRun evicts a dirty page with three dirty neighbours
// (a run of 4 pages, one vectored write) from a pool with no extension,
// over a data file that takes no virtual time.
func BenchmarkEvictDirtyRun(b *testing.B) {
	k := newKernel(b, 1)
	s, _ := nullRig(k)
	k.Go("bench", func(p *sim.Proc) {
		bp := newPool(p, s, vfs.NewMemFile("data"), 64, false)
		var run []int
		for i := 0; i < 4; i++ {
			h, _, err := bp.Allocate(p, page.TypeHeap)
			if err != nil {
				b.Error(err)
				return
			}
			run = append(run, h.idx)
			h.Release()
		}
		victim := &bp.frames[run[1]]
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			for _, idx := range run {
				bp.frames[idx].dirty = true
			}
			if ok, err := bp.evict(p, run[1]); !ok || err != nil {
				b.Errorf("evict: %v, %v", ok, err)
				return
			}
			// Put the victim back: evict touches no policy state.
			victim.valid = true
			bp.table[victim.pageNo] = run[1]
		}
		b.StopTimer()
		if bp.Stats.EvictWriteBytes != int64(4*b.N)*page.Size {
			b.Errorf("%d bytes written back in %d evictions", bp.Stats.EvictWriteBytes, b.N)
		}
	})
	k.Run(time.Hour)
}
