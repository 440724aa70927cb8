package buffer

import (
	"fmt"
	"testing"
	"time"

	"remotedb/internal/cluster"
	"remotedb/internal/engine/page"
	"remotedb/internal/hw/disk"
	"remotedb/internal/sim"
	"remotedb/internal/vfs"
)

func rig(k *sim.Kernel) (*cluster.Server, vfs.File) {
	cfg := cluster.DefaultConfig()
	cfg.MemoryBytes = 256 << 20
	s := cluster.NewServer(k, "db1", cfg)
	return s, vfs.NewDeviceFile("data", s.HDD)
}

// newPool builds a pool with no lazy writer unless asked.
func newPool(p *sim.Proc, s *cluster.Server, data vfs.File, frames int, writer bool) *Pool {
	cfg := DefaultConfig(frames)
	if !writer {
		cfg.WriterPeriod = 0
	}
	bp, err := New(p, s, data, cfg)
	if err != nil {
		panic(err)
	}
	return bp
}

func TestAllocateAndGet(t *testing.T) {
	k := newKernel(t, 1)
	s, data := rig(k)
	k.Go("t", func(p *sim.Proc) {
		bp := newPool(p, s, data, 16, false)
		h, no, err := bp.Allocate(p, page.TypeHeap)
		if err != nil {
			t.Error(err)
			return
		}
		h.Page().Insert([]byte("hello"))
		h.MarkDirty(1)
		h.Release()

		h2, err := bp.Get(p, no)
		if err != nil {
			t.Error(err)
			return
		}
		rec, _ := h2.Page().Get(0)
		if string(rec) != "hello" {
			t.Errorf("rec = %q", rec)
		}
		h2.Release()
		if bp.Stats.Hits != 1 {
			t.Errorf("hits = %d", bp.Stats.Hits)
		}
	})
	k.Run(time.Minute)
}

func TestEvictionWritesBackDirty(t *testing.T) {
	k := newKernel(t, 1)
	s, data := rig(k)
	k.Go("t", func(p *sim.Proc) {
		bp := newPool(p, s, data, 4, false)
		var pages []uint64
		// Create 8 dirty pages in a 4-frame pool: forces dirty evictions.
		for i := 0; i < 8; i++ {
			h, no, err := bp.Allocate(p, page.TypeHeap)
			if err != nil {
				t.Error(err)
				return
			}
			h.Page().Insert([]byte(fmt.Sprintf("page-%d", i)))
			h.MarkDirty(uint64(i + 1))
			h.Release()
			pages = append(pages, no)
		}
		if bp.Stats.EvictDirty == 0 {
			t.Error("expected dirty evictions")
		}
		// Every page must read back intact (from RAM or data file).
		for i, no := range pages {
			h, err := bp.Get(p, no)
			if err != nil {
				t.Error(err)
				return
			}
			rec, err := h.Page().Get(0)
			if err != nil || string(rec) != fmt.Sprintf("page-%d", i) {
				t.Errorf("page %d content %q err %v", no, rec, err)
			}
			h.Release()
		}
	})
	k.Run(time.Minute)
}

func TestExtensionServesEvictedPages(t *testing.T) {
	k := newKernel(t, 1)
	s, data := rig(k)
	k.Go("t", func(p *sim.Proc) {
		bp := newPool(p, s, data, 4, false)
		ext := vfs.NewDeviceFile("ext", s.SSD)
		bp.AttachExtension(ext, 64)
		var pages []uint64
		for i := 0; i < 12; i++ {
			h, no, _ := bp.Allocate(p, page.TypeHeap)
			h.Page().Insert([]byte{byte(i)})
			h.MarkDirty(1)
			h.Release()
			pages = append(pages, no)
		}
		bp.Stats.DiskReads = 0
		// Re-read the early (evicted) pages: they should come from the
		// extension, not the data file.
		for _, no := range pages[:6] {
			h, err := bp.Get(p, no)
			if err != nil {
				t.Error(err)
				return
			}
			h.Release()
		}
		if bp.Stats.ExtHits == 0 {
			t.Error("extension never hit")
		}
		if bp.Stats.DiskReads != 0 {
			t.Errorf("disk reads = %d, want 0 (all in ext)", bp.Stats.DiskReads)
		}
	})
	k.Run(time.Minute)
}

func TestExtensionFailureFallsBack(t *testing.T) {
	k := newKernel(t, 1)
	s, data := rig(k)
	k.Go("t", func(p *sim.Proc) {
		bp := newPool(p, s, data, 4, false)
		ext := &failingFile{}
		bp.AttachExtension(ext, 64)
		var pages []uint64
		for i := 0; i < 12; i++ {
			h, no, _ := bp.Allocate(p, page.TypeHeap)
			h.Page().Insert([]byte{byte(i)})
			h.MarkDirty(1)
			h.Release()
			pages = append(pages, no)
		}
		if bp.ExtensionHealthy() {
			t.Error("extension should be disabled after failure")
		}
		// Everything still readable from the data file.
		for i, no := range pages {
			h, err := bp.Get(p, no)
			if err != nil {
				t.Errorf("get %d: %v", no, err)
				return
			}
			rec, _ := h.Page().Get(0)
			if len(rec) != 1 || rec[0] != byte(i) {
				t.Errorf("page %d corrupted", no)
			}
			h.Release()
		}
	})
	k.Run(time.Minute)
}

// failingFile always reports the backing store gone.
type failingFile struct{}

func (f *failingFile) Name() string                                  { return "failing" }
func (f *failingFile) ReadAt(p *sim.Proc, b []byte, off int64) error { return vfs.ErrUnavailable }
func (f *failingFile) WriteAt(p *sim.Proc, b []byte, off int64) error {
	return vfs.ErrUnavailable
}
func (f *failingFile) Size() int64             { return 0 }
func (f *failingFile) Close(p *sim.Proc) error { return nil }

func TestAllFramesPinned(t *testing.T) {
	k := newKernel(t, 1)
	s, data := rig(k)
	k.Go("t", func(p *sim.Proc) {
		bp := newPool(p, s, data, 2, false)
		h1, _, _ := bp.Allocate(p, page.TypeHeap)
		h2, _, _ := bp.Allocate(p, page.TypeHeap)
		// A third allocation must block until a release; arrange one.
		k.Go("releaser", func(rp *sim.Proc) {
			rp.Sleep(time.Millisecond)
			h1.Release()
		})
		h3, _, err := bp.Allocate(p, page.TypeHeap)
		if err != nil {
			t.Error(err)
			return
		}
		if p.Now() < time.Millisecond {
			t.Error("allocate should have blocked until release")
		}
		h2.Release()
		h3.Release()
	})
	k.Run(time.Minute)
}

func TestConcurrentFaultsSinglePage(t *testing.T) {
	k := newKernel(t, 1)
	s, data := rig(k)
	k.Go("t", func(p *sim.Proc) {
		bp := newPool(p, s, data, 8, false)
		h, no, _ := bp.Allocate(p, page.TypeHeap)
		h.Page().Insert([]byte("shared"))
		h.MarkDirty(1)
		h.Release()
		// Evict it by cycling other pages through.
		for i := 0; i < 16; i++ {
			hh, _, _ := bp.Allocate(p, page.TypeHeap)
			hh.Release()
		}
		if bp.InRAM(no) {
			t.Error("setup: page should be evicted")
			return
		}
		// 10 concurrent readers fault the same page; it must be read from
		// disk exactly once.
		done := sim.NewWaitGroup(k)
		done.Add(10)
		bp.Stats.DiskReads = 0
		for i := 0; i < 10; i++ {
			k.Go("reader", func(rp *sim.Proc) {
				hh, err := bp.Get(rp, no)
				if err != nil {
					t.Error(err)
				} else {
					rec, _ := hh.Page().Get(0)
					if string(rec) != "shared" {
						t.Errorf("reader saw %q", rec)
					}
					hh.Release()
				}
				done.Done()
			})
		}
		done.Wait(p)
		if bp.Stats.DiskReads != 1 {
			t.Errorf("disk reads = %d, want 1 (fault coalescing)", bp.Stats.DiskReads)
		}
	})
	k.Run(time.Minute)
}

func TestLazyWriterCleansDirtyPages(t *testing.T) {
	k := newKernel(t, 1)
	s, data := rig(k)
	k.Go("t", func(p *sim.Proc) {
		bp := newPool(p, s, data, 16, true)
		for i := 0; i < 8; i++ {
			h, _, _ := bp.Allocate(p, page.TypeHeap)
			h.MarkDirty(1)
			h.Release()
		}
		p.Sleep(500 * time.Millisecond)
		if bp.Stats.WriterIO == 0 {
			t.Error("lazy writer never wrote")
		}
		bp.StopWriter()
	})
	k.Run(2 * time.Second)
}

// One lazy-writer round issues its whole batch at once: 128 dirty pages,
// none adjacent to another, on the default 20-spindle array are written
// back in tens of milliseconds, where 128 random writes one after
// another take about half a second.
func TestLazyWriterRoundRunsConcurrently(t *testing.T) {
	k := newKernel(t, 1)
	s, data := rig(k)
	k.Go("t", func(p *sim.Proc) {
		bp := newPool(p, s, data, 512, true) // a round takes min(writerBatch, frames/4) = 128
		for i := 0; i < 256; i++ {
			h, _, _ := bp.Allocate(p, page.TypeHeap)
			h.Release()
		}
		p.Sleep(5 * time.Second) // the writer cleans the freshly allocated pages
		for no := uint64(2); no <= 256; no += 2 {
			h, err := bp.Get(p, no)
			if err != nil {
				t.Fatal(err)
			}
			h.MarkDirty(1)
			h.Release()
		}
		start, target := p.Now(), bp.Stats.WriterIO+128
		for bp.Stats.WriterIO < target && p.Now()-start < 2*time.Second {
			p.Sleep(time.Millisecond)
		}
		bp.StopWriter()
		if took := p.Now() - start; bp.Stats.WriterIO < target || took >= 100*time.Millisecond {
			t.Errorf("writer cleaned %d of 128 pages in %v, want all within 100ms", 128-(target-bp.Stats.WriterIO), took)
		}
		for i := range bp.frames {
			if f := &bp.frames[i]; f.valid && f.dirty {
				t.Errorf("page %d still dirty", f.pageNo)
			}
		}
	})
	k.Run(time.Minute)
}

func TestFlushAll(t *testing.T) {
	k := newKernel(t, 1)
	s, data := rig(k)
	k.Go("t", func(p *sim.Proc) {
		bp := newPool(p, s, data, 16, false)
		h, no, _ := bp.Allocate(p, page.TypeHeap)
		h.Page().Insert([]byte("persist me"))
		h.MarkDirty(1)
		h.Release()
		if err := bp.FlushAll(p); err != nil {
			t.Error(err)
			return
		}
		// Read the raw file image: the record must be there.
		buf := make([]byte, page.Size)
		data.ReadAt(p, buf, int64(no)*page.Size)
		pg := page.Wrap(buf)
		if err := pg.Verify(); err != nil {
			t.Errorf("flushed page fails checksum: %v", err)
		}
		rec, err := pg.Get(0)
		if err != nil || string(rec) != "persist me" {
			t.Errorf("flushed image wrong: %q %v", rec, err)
		}
	})
	k.Run(time.Minute)
}

func TestPrimeInstall(t *testing.T) {
	k := newKernel(t, 1)
	s, data := rig(k)
	k.Go("t", func(p *sim.Proc) {
		bp := newPool(p, s, data, 8, false)
		img := make([]byte, page.Size)
		pg := page.Wrap(img)
		pg.Init(42, page.TypeHeap)
		pg.Insert([]byte("primed"))
		if err := bp.PrimeInstall(p, 42, img); err != nil {
			t.Error(err)
			return
		}
		if !bp.InRAM(42) {
			t.Error("primed page not resident")
		}
		bp.Stats.DiskReads = 0
		h, _ := bp.Get(p, 42)
		rec, _ := h.Page().Get(0)
		if string(rec) != "primed" {
			t.Errorf("primed content = %q", rec)
		}
		h.Release()
		if bp.Stats.DiskReads != 0 {
			t.Error("primed page should not hit disk")
		}
	})
	k.Run(time.Minute)
}

func TestResidentPages(t *testing.T) {
	k := newKernel(t, 1)
	s, data := rig(k)
	k.Go("t", func(p *sim.Proc) {
		bp := newPool(p, s, data, 8, false)
		for i := 0; i < 5; i++ {
			h, _, _ := bp.Allocate(p, page.TypeHeap)
			h.Release()
		}
		if got := len(bp.ResidentPages()); got != 5 {
			t.Errorf("resident = %d, want 5", got)
		}
	})
	k.Run(time.Minute)
}

func TestPoolCommitsMemory(t *testing.T) {
	k := newKernel(t, 1)
	cfg := cluster.DefaultConfig()
	cfg.MemoryBytes = 1 << 20 // 1 MiB: fits 128 pages max
	s := cluster.NewServer(k, "tiny", cfg)
	data := vfs.NewDeviceFile("data", disk.NullDevice{DeviceName: "null"})
	k.Go("t", func(p *sim.Proc) {
		if _, err := New(p, s, data, DefaultConfig(1000)); err == nil {
			t.Error("pool larger than server memory should fail")
		}
		if _, err := New(p, s, data, DefaultConfig(64)); err != nil {
			t.Errorf("pool within memory failed: %v", err)
		}
	})
	k.Run(time.Minute)
}

func TestDoubleReleasePanics(t *testing.T) {
	k := newKernel(t, 1)
	s, data := rig(k)
	k.Go("t", func(p *sim.Proc) {
		bp := newPool(p, s, data, 4, false)
		h, _, _ := bp.Allocate(p, page.TypeHeap)
		h.Release()
		defer func() {
			if recover() == nil {
				t.Error("double release should panic")
			}
		}()
		h.Release()
	})
	k.Run(time.Minute)
}
