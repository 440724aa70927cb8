package buffer

import (
	"testing"
	"time"

	"remotedb/internal/cluster"
	"remotedb/internal/engine/page"
	"remotedb/internal/sim"
	"remotedb/internal/vfs"
)

// runPool builds a 16-frame pool with no lazy writer and installs pages
// 1..n clean, stamped at version 1, page n in frame n-1.
func runPool(t *testing.T, p *sim.Proc, s *cluster.Server, data vfs.File, n int) *Pool {
	t.Helper()
	bp := newPool(p, s, data, 16, false)
	for no := uint64(1); no <= uint64(n); no++ {
		installStamped(t, p, bp, no)
	}
	return bp
}

// installStamped installs page no clean at version 1.
func installStamped(t *testing.T, p *sim.Proc, bp *Pool, no uint64) {
	t.Helper()
	img := make([]byte, page.Size)
	pg := page.Wrap(img)
	pg.Init(no, page.TypeHeap)
	stamp(pg, no, 1)
	if err := bp.PrimeInstall(p, no, img); err != nil {
		t.Fatal(err)
	}
}

// redirty stamps a resident page at version and marks it dirty.
func redirty(t *testing.T, p *sim.Proc, bp *Pool, no uint64, version int) {
	t.Helper()
	h, err := bp.Get(p, no)
	if err != nil {
		t.Fatal(err)
	}
	stamp(h.Page(), no, version)
	h.MarkDirty(0)
	h.Release()
}

func hddWrites(s *cluster.Server) int64 {
	_, writes, _, _ := s.HDD.Stats()
	return writes
}

// checkOnDisk reads page no straight from the data file.
func checkOnDisk(t *testing.T, p *sim.Proc, data vfs.File, no uint64, version int) {
	t.Helper()
	buf := make([]byte, page.Size)
	if err := data.ReadAt(p, buf, int64(no)*page.Size); err != nil {
		t.Fatal(err)
	}
	check(t, page.Wrap(buf), no, version)
}

func (bp *Pool) dirtyPage(no uint64) bool {
	idx, ok := bp.table[no]
	return ok && bp.frames[idx].dirty
}

// A dirty victim whose dirty neighbours sit on both sides of it, all in
// one 64 KiB stripe unit (pages 8..15), is written back with them in one
// spindle write. The neighbours stay resident, clean.
func TestDirtyEvictionWritesOneRun(t *testing.T) {
	k := newKernel(t, 1)
	s, data := rig(k)
	k.Go("t", func(p *sim.Proc) {
		bp := runPool(t, p, s, data, 16)
		for no := uint64(9); no <= 11; no++ {
			redirty(t, p, bp, no, 2)
		}
		st, writes := bp.Stats, hddWrites(s)
		if ok, err := bp.evict(p, bp.table[10]); !ok || err != nil {
			t.Fatalf("evict: %v, %v", ok, err)
		}
		if n := hddWrites(s) - writes; n != 1 {
			t.Errorf("%d spindle writes, want 1", n)
		}
		if bp.InRAM(10) || !bp.InRAM(9) || !bp.InRAM(11) || bp.dirtyPage(9) || bp.dirtyPage(11) {
			t.Error("want the victim evicted and its neighbours resident and clean")
		}
		if d, b := bp.Stats.EvictDirty-st.EvictDirty, bp.Stats.EvictWriteBytes-st.EvictWriteBytes; d != 1 || b != 3*page.Size {
			t.Errorf("EvictDirty +%d, EvictWriteBytes +%d; want +1, +%d", d, b, 3*page.Size)
		}
		for no := uint64(9); no <= 11; no++ {
			checkOnDisk(t, p, data, no, 2)
		}
	})
	k.Run(time.Minute)
}

// A gathered run stops at a pinned neighbour: what lies beyond it stays
// dirty too.
func TestDirtyEvictionRunStopsAtPin(t *testing.T) {
	k := newKernel(t, 1)
	s, data := rig(k)
	k.Go("t", func(p *sim.Proc) {
		bp := runPool(t, p, s, data, 16)
		for no := uint64(9); no <= 12; no++ {
			redirty(t, p, bp, no, 2)
		}
		pin, err := bp.Get(p, 11)
		if err != nil {
			t.Fatal(err)
		}
		if ok, err := bp.evict(p, bp.table[10]); !ok || err != nil {
			t.Fatalf("evict: %v, %v", ok, err)
		}
		pin.Release()
		if bp.dirtyPage(9) || !bp.dirtyPage(11) || !bp.dirtyPage(12) {
			t.Errorf("dirty after the eviction: 9 %v, 11 %v, 12 %v; want false, true, true",
				bp.dirtyPage(9), bp.dirtyPage(11), bp.dirtyPage(12))
		}
		checkOnDisk(t, p, data, 9, 2)
		checkOnDisk(t, p, data, 10, 2)
	})
	k.Run(time.Minute)
}

// A neighbour modified while the run's write sleeps stays dirty, and its
// new image is what a later write-back stores.
func TestDirtyEvictionKeepsRedirtiedNeighbourDirty(t *testing.T) {
	k := newKernel(t, 1)
	s, _ := nullRig(k)
	data := &slowFile{mem: vfs.NewMemFile("data"), delay: time.Millisecond}
	k.Go("t", func(p *sim.Proc) {
		bp := runPool(t, p, s, data, 16)
		for no := uint64(9); no <= 11; no++ {
			redirty(t, p, bp, no, 2)
		}
		done := sim.NewWaitGroup(k)
		done.Add(1)
		k.Go("writer", func(q *sim.Proc) {
			defer done.Done()
			q.Sleep(100 * time.Microsecond) // the run's write is asleep
			redirty(t, q, bp, 11, 3)
		})
		if ok, err := bp.evict(p, bp.table[10]); !ok || err != nil {
			t.Fatalf("evict: %v, %v", ok, err)
		}
		done.Wait(p)
		if bp.dirtyPage(9) || !bp.dirtyPage(11) {
			t.Errorf("dirty after the eviction: 9 %v, 11 %v; want false, true", bp.dirtyPage(9), bp.dirtyPage(11))
		}
		if err := bp.FlushAll(p); err != nil {
			t.Fatal(err)
		}
		checkOnDisk(t, p, data, 9, 2)
		checkOnDisk(t, p, data, 10, 2)
		checkOnDisk(t, p, data, 11, 3)
	})
	k.Run(time.Minute)
}

// Three dirty runs whose pages alternate in frame order: the writer writes
// each run with one spindle write, not one per sub-batch it spans.
func TestWriterRoundGathersRuns(t *testing.T) {
	k := newKernel(t, 1)
	s, data := rig(k)
	k.Go("t", func(p *sim.Proc) {
		cfg := DefaultConfig(16) // a writer sub-batch picks 4 pages
		bp, err := New(p, s, data, cfg)
		if err != nil {
			t.Fatal(err)
		}
		// Runs 2..5, 10..13 and 18..21, each inside one stripe unit; frame
		// i holds the i/3-th page of run i%3.
		var pages []uint64
		for i := uint64(0); i < 4; i++ {
			for _, first := range []uint64{2, 10, 18} {
				pages = append(pages, first+i)
			}
		}
		for _, no := range pages {
			installStamped(t, p, bp, no)
			redirty(t, p, bp, no, 2)
		}
		writes := hddWrites(s)
		for i := 0; i < 100 && bp.Stats.WriterIO < int64(len(pages)); i++ {
			p.Sleep(cfg.WriterPeriod)
		}
		bp.StopWriter()
		if n := hddWrites(s) - writes; n != 3 {
			t.Errorf("%d spindle writes, want 3", n)
		}
		if bp.Stats.WriterIO != int64(len(pages)) {
			t.Errorf("writer cleaned %d of %d pages", bp.Stats.WriterIO, len(pages))
		}
		for _, no := range pages {
			checkOnDisk(t, p, data, no, 2)
		}
	})
	k.Run(time.Minute)
}

// Every byte the data file takes is a page the writer or an eviction
// counted: neighbours cleaned on the eviction path count as eviction
// bytes, while EvictDirty counts victims only. Each page is dirtied once,
// at allocation, so no write races a modification.
func TestWriteBackBytesMatchDataFile(t *testing.T) {
	k := newKernel(t, 1)
	s, data := rig(k)
	k.Go("t", func(p *sim.Proc) {
		bp := newPool(p, s, data, 16, true)
		for i := 0; i < 400; i++ {
			h, _, err := bp.Allocate(p, page.TypeHeap)
			if err != nil {
				t.Fatal(err)
			}
			h.Release()
			if i%40 == 0 {
				p.Sleep(bp.cfg.WriterPeriod) // a writer round
			}
		}
		p.Sleep(time.Second)
		bp.StopWriter()
		st := bp.Stats
		if st.EvictDirty == 0 || st.WriterIO == 0 || st.EvictWriteBytes <= st.EvictDirty*page.Size {
			t.Fatalf("want dirty evictions with neighbours and writer rounds: %+v", st)
		}
		if written := data.(*vfs.DeviceFile).Written; st.WriterBytes+st.EvictWriteBytes != written {
			t.Errorf("WriterBytes %d + EvictWriteBytes %d != data file's %d bytes",
				st.WriterBytes, st.EvictWriteBytes, written)
		}
	})
	k.Run(time.Minute)
}

// A batch of more puts than the extension has slots writes only the
// elements that keep their slot: no two elements of one vector overlap.
func TestExtBatchWritesNoOverlap(t *testing.T) {
	k := newKernel(t, 1)
	s, data := nullRig(k)
	k.Go("t", func(p *sim.Proc) {
		ext := &vecLog{MemFile: vfs.NewMemFile("ext")}
		bp := newPool(p, s, data, 16, false)
		bp.AttachExtension(ext, 2)
		for i := 0; i < 24; i++ { // the last 8 evict the first 8
			h, _, err := bp.Allocate(p, page.TypeHeap)
			if err != nil {
				t.Fatal(err)
			}
			h.Release()
		}
		p.Sleep(time.Millisecond) // the flusher drains the queue
		if ext.elems == 0 || ext.overlaps > 0 {
			t.Errorf("%d elements written, %d over another of their vector", ext.elems, ext.overlaps)
		}
		if bp.Stats.ExtWrites != ext.elems {
			t.Errorf("%d elements written, %d mappings installed", ext.elems, bp.Stats.ExtWrites)
		}
	})
	k.Run(time.Minute)
}

// vecLog is a MemFile that counts the elements its vectored writes take,
// and those that land on an offset an earlier element of the same vector
// took.
type vecLog struct {
	*vfs.MemFile
	elems, overlaps int64
}

func (f *vecLog) WriteAtV(p *sim.Proc, vecs []vfs.Vec) error {
	seen := map[int64]bool{}
	for _, v := range vecs {
		f.elems++
		if seen[v.Off] {
			f.overlaps++
		}
		seen[v.Off] = true
	}
	return f.MemFile.WriteAtV(p, vecs)
}
