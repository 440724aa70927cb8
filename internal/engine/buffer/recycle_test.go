package buffer

import (
	"math/rand"
	"runtime"
	"testing"
	"time"

	"remotedb/internal/cluster"
	"remotedb/internal/engine/page"
	"remotedb/internal/hw/disk"
	"remotedb/internal/sim"
	"remotedb/internal/vfs"
)

// slowFile is an extension file whose writes take delay (and reads rdelay)
// and which, like a DMA engine, moves the bytes when the transfer happens,
// not when it is posted: an image reused while its put is in flight reaches
// the file with the wrong bytes, and a read of a slot overwritten while it
// sleeps returns the new bytes.
type slowFile struct {
	mem     *vfs.MemFile
	delay   time.Duration
	rdelay  time.Duration
	written int64 // bytes
	fetches int   // readahead fetchers' reads asleep now
}

func (f *slowFile) Name() string            { return "slow-ext" }
func (f *slowFile) Size() int64             { return f.mem.Size() }
func (f *slowFile) Close(p *sim.Proc) error { return f.mem.Close(p) }
func (f *slowFile) ReadAt(p *sim.Proc, b []byte, off int64) error {
	if f.rdelay > 0 {
		fetcher := p.Name() == "readahead"
		if fetcher {
			f.fetches++
		}
		p.Sleep(f.rdelay)
		if fetcher {
			f.fetches--
		}
	}
	return f.mem.ReadAt(p, b, off)
}
func (f *slowFile) WriteAt(p *sim.Proc, b []byte, off int64) error {
	p.Sleep(f.delay)
	f.written += int64(len(b))
	return f.mem.WriteAt(p, b, off)
}

// nullRig is rig on a data device that takes no time, so the only slow
// thing in a test is what the test slows.
func nullRig(k *sim.Kernel) (*cluster.Server, vfs.File) {
	cfg := cluster.DefaultConfig()
	cfg.MemoryBytes = 256 << 20
	s := cluster.NewServer(k, "db1", cfg)
	return s, vfs.NewDeviceFile("data", disk.NullDevice{DeviceName: "null"})
}

// stamp fills the page's payload with a pattern of (pageNo, version);
// check compares the whole payload against it.
func stamp(pg *page.Page, no uint64, version int) {
	b := pg.Bytes()[page.HeaderSize:]
	for i := range b {
		b[i] = byte(int(no)*131 + version*31 + i)
	}
}

func check(t *testing.T, pg *page.Page, no uint64, version int) bool {
	t.Helper()
	if pg.PageNo() != no {
		t.Errorf("page %d: frame holds page %d", no, pg.PageNo())
		return false
	}
	for i, c := range pg.Bytes()[page.HeaderSize:] {
		if c != byte(int(no)*131+version*31+i) {
			t.Errorf("page %d version %d: byte %d is %#x", no, version, i, c)
			return false
		}
	}
	return true
}

// An eviction image belongs to its put until the flusher retires the
// batch: A is evicted, re-faulted through extPending while its batch is
// still being written, re-evicted with new content, and then a storm of
// readers and writers churns the pool; every page read is compared byte
// for byte with what was last written to it. Handing an image back to the
// free list any earlier lets a later eviction overwrite bytes the slow
// write has yet to send, or bytes extPending still serves.
func TestEvictionImageOwnedUntilBatchRetires(t *testing.T) {
	k := newKernel(t, 1)
	s, data := nullRig(k)
	k.Go("t", func(p *sim.Proc) {
		bp := newPool(p, s, data, 4, false)
		bp.AttachExtension(&slowFile{mem: vfs.NewMemFile("ext"), delay: time.Millisecond}, 64)
		version := map[uint64]int{}
		write := func(h *Handle) {
			no := h.PageNo()
			version[no]++
			stamp(h.Page(), no, version[no])
			h.MarkDirty(0)
		}
		var pages []uint64
		alloc := func(n int) {
			for i := 0; i < n; i++ {
				h, no, err := bp.Allocate(p, page.TypeHeap)
				if err != nil {
					t.Fatal(err)
				}
				pages = append(pages, no)
				write(h)
				h.Release()
			}
		}
		alloc(8) // evicts four pages into the queue, A among them
		// The flusher runs, swaps the batch out and starts writing: 4 ms.
		p.Sleep(10 * time.Microsecond)
		var a uint64
		for _, no := range pages {
			if _, pending := bp.extPending[no]; pending {
				a = no
				break
			}
		}
		if a == 0 || len(bp.extQueue) != 0 {
			t.Fatalf("no batch in flight: pending %d, queued %d", len(bp.extPending), len(bp.extQueue))
		}
		extHits, diskReads := bp.Stats.ExtHits, bp.Stats.DiskReads
		h, err := bp.Get(p, a)
		if err != nil {
			t.Fatal(err)
		}
		if bp.Stats.ExtHits != extHits+1 || bp.Stats.DiskReads != diskReads {
			t.Errorf("A not served from its queued image: ext hits +%d, disk reads +%d", bp.Stats.ExtHits-extHits, bp.Stats.DiskReads-diskReads)
		}
		check(t, h.Page(), a, 1)
		write(h)
		h.Release()
		alloc(8) // evicts A again, with its new content, and seven others
		if _, pending := bp.extPending[a]; !pending || bp.InRAM(a) {
			t.Fatalf("A was not re-evicted while its first batch is in flight")
		}
		p.Sleep(100 * time.Millisecond) // every batch retires
		if len(bp.extPending) != 0 {
			t.Errorf("%d read-through entries outlive their batches", len(bp.extPending))
		}
		readAll := func() {
			for _, no := range pages {
				h, err := bp.Get(p, no)
				if err != nil {
					t.Fatal(err)
				}
				check(t, h.Page(), no, version[no])
				h.Release()
			}
		}
		readAll()
		if bp.Stats.DiskReads != diskReads {
			t.Errorf("%d pages fell to the data file: their puts were lost", bp.Stats.DiskReads-diskReads)
		}

		// The storm: no yield between a proc's check and its write, so
		// the oracle is exact whatever the interleaving.
		wg := sim.NewWaitGroup(k)
		for c := 0; c < 4; c++ {
			rng := rand.New(rand.NewSource(int64(c)))
			wg.Add(1)
			k.Go("storm", func(q *sim.Proc) {
				defer wg.Done()
				for i := 0; i < 400 && !t.Failed(); i++ {
					h, err := bp.Get(q, pages[rng.Intn(len(pages))])
					if err != nil {
						t.Error(err)
						return
					}
					check(t, h.Page(), h.PageNo(), version[h.PageNo()])
					if rng.Intn(3) == 0 {
						write(h)
					}
					h.Release()
					q.Sleep(time.Duration(rng.Intn(300)) * time.Microsecond)
				}
			})
		}
		wg.Wait(p)
		p.Sleep(100 * time.Millisecond)
		readAll()
		if len(bp.imgFree) > bp.extPutSlots.Capacity() {
			t.Errorf("free list holds %d images, cap %d", len(bp.imgFree), bp.extPutSlots.Capacity())
		}
	})
	k.Run(time.Minute)
}

func TestBufferPoolAllocations(t *testing.T) {
	k := newKernel(t, 1)
	s, data := nullRig(k)
	k.Go("t", func(p *sim.Proc) {
		bp := newPool(p, s, data, 4, false)
		bp.AttachExtension(vfs.NewMemFile("ext"), 64)
		var pages []uint64
		for i := 0; i < 32; i++ {
			h, no, err := bp.Allocate(p, page.TypeHeap)
			if err != nil {
				t.Fatal(err)
			}
			stamp(h.Page(), no, 1)
			h.Release()
			pages = append(pages, no)
		}
		hot := pages[len(pages)-1] // resident
		if got := testing.AllocsPerRun(100, func() {
			h, err := bp.Get(p, hot)
			if err != nil {
				t.Fatal(err)
			}
			h.Release()
		}); got != 0 {
			t.Errorf("Get of a resident page: %.0f allocations, want 0", got)
		}

		// Steady state: every Get faults a page in from the extension and
		// evicts another into it; the images cycle through the free list.
		cycle := func(n int) {
			for i := 0; i < n; i++ {
				h, err := bp.Get(p, pages[i%len(pages)])
				if err != nil {
					t.Fatal(err)
				}
				check(t, h.Page(), h.PageNo(), 1)
				h.Release()
				p.Sleep(time.Microsecond) // the flusher's turn
			}
		}
		cycle(4 * len(pages))
		var m0, m1 runtime.MemStats
		const n = 2000
		runtime.ReadMemStats(&m0)
		cycle(n)
		runtime.ReadMemStats(&m1)
		if got := (m1.TotalAlloc - m0.TotalAlloc) / n; got >= page.Size/4 {
			t.Errorf("steady-state eviction allocates %d bytes per page: images are not recycled", got)
		}
		if bp.Stats.ExtHits < n {
			t.Errorf("%d extension hits in %d faults: the cycle did not evict through the extension", bp.Stats.ExtHits, n)
		}
	})
	k.Run(time.Minute)
}
