package buffer

import (
	"fmt"
	"testing"
	"time"

	"remotedb/internal/engine/page"
	"remotedb/internal/sim"
	"remotedb/internal/vfs"
)

// seedPages allocates n dirty pages and flushes them so the data file
// holds every image; returns the page numbers.
func seedPages(t *testing.T, p *sim.Proc, bp *Pool, n int) []uint64 {
	t.Helper()
	var pages []uint64
	for i := 0; i < n; i++ {
		h, no, err := bp.Allocate(p, page.TypeHeap)
		if err != nil {
			t.Fatal(err)
		}
		h.Page().Insert([]byte(fmt.Sprintf("page-%d", i)))
		h.MarkDirty(uint64(i + 1))
		h.Release()
		pages = append(pages, no)
	}
	if err := bp.FlushAll(p); err != nil {
		t.Fatal(err)
	}
	return pages
}

// skewedRun drives a hot-set-plus-scan workload: each round touches the
// hot pages twice, then scans a fresh slice of cold pages once — the
// scan-pollution pattern a recency-only policy is blind to. It returns
// how many of the hot pages' first touches in rounds 1.. hit.
func skewedRun(t *testing.T, p *sim.Proc, bp *Pool, pages []uint64, rounds, hot, scan int) (firstHits int) {
	t.Helper()
	get := func(no uint64) (hit bool) {
		hits := bp.Stats.Hits
		h, err := bp.Get(p, no)
		if err != nil {
			t.Fatal(err)
		}
		h.Release()
		return bp.Stats.Hits > hits
	}
	cold := pages[hot:]
	for r := 0; r < rounds; r++ {
		for rep := 0; rep < 2; rep++ {
			for _, no := range pages[:hot] {
				if get(no) && rep == 0 && r > 0 {
					firstHits++
				}
			}
		}
		for i := 0; i < scan; i++ {
			get(cold[(r*scan+i)%len(cold)])
		}
	}
	return firstHits
}

// Each round's scan alone would refill the pool, so a recency-only policy
// misses every first touch of the hot set. GDSF must keep the hot pages,
// whose frequency the second touches raise, through the scans.
func TestGDSFKeepsHotSetThroughScans(t *testing.T) {
	const rounds, hot = 20, 4
	k := newKernel(t, 1)
	s, data := rig(k)
	k.Go("t", func(p *sim.Proc) {
		cfg := DefaultConfig(8)
		cfg.WriterPeriod = 0
		bp, err := New(p, s, data, cfg)
		if err != nil {
			t.Error(err)
			return
		}
		pages := seedPages(t, p, bp, 64)
		touches := (rounds - 1) * hot
		if got := skewedRun(t, p, bp, pages, rounds, hot, 8); 2*got <= touches {
			t.Errorf("%d of the hot set's %d first touches hit, want more than half", got, touches)
		}
	})
	k.Run(time.Minute)
}

func TestEvictCountsWriteBackBytes(t *testing.T) {
	k := newKernel(t, 1)
	s, data := rig(k)
	k.Go("t", func(p *sim.Proc) {
		bp := newPool(p, s, data, 4, false)
		// 12 dirty pages through 4 frames: every eviction is dirty.
		for i := 0; i < 12; i++ {
			h, _, err := bp.Allocate(p, page.TypeHeap)
			if err != nil {
				t.Error(err)
				return
			}
			h.MarkDirty(uint64(i + 1))
			h.Release()
		}
		if bp.Stats.EvictDirty == 0 {
			t.Fatal("no dirty evictions")
		}
		// A victim's dirty neighbours go clean with it: the data file took
		// what the evictions counted, and at least a page per victim.
		written := data.(*vfs.DeviceFile).Written
		if bp.Stats.EvictWriteBytes != written || written < bp.Stats.EvictDirty*page.Size {
			t.Errorf("EvictWriteBytes = %d, data file took %d bytes (%d dirty evictions)",
				bp.Stats.EvictWriteBytes, written, bp.Stats.EvictDirty)
		}
	})
	k.Run(time.Minute)
}

func TestBatchedWriterCountsBytes(t *testing.T) {
	k := newKernel(t, 1)
	s, data := rig(k)
	k.Go("t", func(p *sim.Proc) {
		bp := newPool(p, s, data, 16, true) // writer on
		for i := 0; i < 8; i++ {
			h, _, err := bp.Allocate(p, page.TypeHeap)
			if err != nil {
				t.Error(err)
				return
			}
			h.MarkDirty(uint64(i + 1))
			h.Release()
		}
		p.Sleep(100 * time.Millisecond)
		bp.StopWriter()
		if bp.Stats.WriterIO == 0 {
			t.Fatal("batched lazy writer wrote nothing")
		}
		if want := bp.Stats.WriterIO * page.Size; bp.Stats.WriterBytes != want {
			t.Errorf("WriterBytes = %d, want %d", bp.Stats.WriterBytes, want)
		}
	})
	k.Run(time.Minute)
}

func TestBatchedExtPutsCountBytes(t *testing.T) {
	k := newKernel(t, 1)
	s, data := rig(k)
	k.Go("t", func(p *sim.Proc) {
		bp := newPool(p, s, data, 4, false)
		bp.AttachExtension(vfs.NewDeviceFile("ext", s.SSD), 64)
		seedPages(t, p, bp, 12)
		p.Sleep(time.Millisecond) // let the flusher drain the queue
		if bp.Stats.ExtWrites == 0 {
			t.Fatal("no batched extension puts")
		}
		if want := bp.Stats.ExtWrites * page.Size; bp.Stats.ExtWriteBytes != want {
			t.Errorf("ExtWriteBytes = %d, want %d", bp.Stats.ExtWriteBytes, want)
		}
	})
	k.Run(time.Minute)
}

func TestReadAheadInstallsWindow(t *testing.T) {
	k := newKernel(t, 1)
	s, data := rig(k)
	k.Go("t", func(p *sim.Proc) {
		bp := newPool(p, s, data, 16, false)
		pages := seedPages(t, p, bp, 32) // early pages evicted
		var absent []uint64
		for _, no := range pages {
			if !bp.InRAM(no) {
				absent = append(absent, no)
			}
			if len(absent) == 4 {
				break
			}
		}
		if len(absent) == 0 {
			t.Fatal("every page resident; cannot exercise readahead")
		}
		before := bp.Stats.DiskReads
		t0 := p.Now()
		n := bp.ReadAhead(p, absent)
		if n != len(absent) {
			t.Errorf("ReadAhead reserved %d, want %d", n, len(absent))
		}
		if p.Now() != t0 {
			t.Errorf("ReadAhead kept the caller %v", p.Now()-t0)
		}
		// The Gets piggyback on the window in flight, then hit.
		hits0 := bp.Stats.Hits
		for _, no := range absent {
			h, err := bp.Get(p, no)
			if err != nil {
				t.Error(err)
				return
			}
			h.Release()
		}
		if got := bp.Stats.Hits - hits0; got != int64(len(absent)) {
			t.Errorf("post-readahead hits = %d, want %d", got, len(absent))
		}
		if bp.Stats.DiskReads != before {
			t.Errorf("readahead or the Gets after it counted DiskReads (%d -> %d)", before, bp.Stats.DiskReads)
		}
		if bp.Stats.ReadAheadPages != int64(len(absent)) {
			t.Errorf("ReadAheadPages = %d, want %d", bp.Stats.ReadAheadPages, len(absent))
		}
	})
	k.Run(time.Minute)
}

func TestReadAheadSkipsUnallocatedAndResident(t *testing.T) {
	k := newKernel(t, 1)
	s, data := rig(k)
	k.Go("t", func(p *sim.Proc) {
		bp := newPool(p, s, data, 16, false)
		pages := seedPages(t, p, bp, 8) // all resident in 16 frames
		resident := pages[0]
		if !bp.InRAM(resident) {
			t.Fatal("expected page resident")
		}
		n := bp.ReadAhead(p, []uint64{resident, 9999, 0})
		if n != 0 {
			t.Errorf("ReadAhead installed %d pages, want 0 (resident, unallocated, page 0)", n)
		}
	})
	k.Run(time.Minute)
}

func TestReadAheadDisabledAtZeroWindow(t *testing.T) {
	k := newKernel(t, 1)
	s, data := rig(k)
	k.Go("t", func(p *sim.Proc) {
		cfg := DefaultConfig(16)
		cfg.WriterPeriod = 0
		cfg.Readahead = 0
		bp, err := New(p, s, data, cfg)
		if err != nil {
			t.Error(err)
			return
		}
		if bp.ReadaheadPages() != 0 {
			t.Errorf("ReadaheadPages = %d, want 0 with Readahead 0", bp.ReadaheadPages())
		}
		seedPages(t, p, bp, 32)
		if n := bp.ReadAheadWindow(p, 1, 0); n != 0 {
			t.Errorf("ReadAheadWindow installed %d with readahead disabled", n)
		}
	})
	k.Run(time.Minute)
}
