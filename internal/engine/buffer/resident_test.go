package buffer

import (
	"bytes"
	"fmt"
	"math/rand"
	"testing"
	"time"

	"remotedb/internal/engine/page"
	"remotedb/internal/sim"
	"remotedb/internal/vfs"
)

// inSim runs fn as a proc of a fresh kernel, in a subtest named after the
// pool stampedPool builds: batched I/O, GDSF replacement.
func inSim(t *testing.T, fn func(t *testing.T, p *sim.Proc)) {
	t.Run("batched-gdsf", func(t *testing.T) {
		k := newKernel(t, 1)
		k.Go("t", func(p *sim.Proc) { fn(t, p) })
		k.Run(time.Minute)
	})
}

// stampedPool builds a pool over n pages stamped at version 1, written
// back, with ext attached at slots.
func stampedPool(t *testing.T, p *sim.Proc, frames, n int, ext vfs.File, slots int) (*Pool, []uint64) {
	t.Helper()
	s, data := nullRig(p.Kernel())
	cfg := DefaultConfig(frames)
	cfg.WriterPeriod = 0
	bp, err := New(p, s, data, cfg)
	if err != nil {
		t.Fatal(err)
	}
	bp.AttachExtension(ext, slots)
	pages := make([]uint64, n)
	for i := range pages {
		h, no, err := bp.Allocate(p, page.TypeHeap)
		if err != nil {
			t.Fatal(err)
		}
		stamp(h.Page(), no, 1)
		h.Release()
		pages[i] = no
	}
	if err := bp.FlushAll(p); err != nil {
		t.Fatal(err)
	}
	return bp, pages
}

// checkResidency is the residency invariant: a resident frame whose
// extCopy bit is set is byte-identical to whatever copy the extension
// keeps of its page (a slot of mem, or a queued put), and a slot mapped to
// a page that is not resident holds that page's latest image.
func checkResidency(t *testing.T, bp *Pool, mem *vfs.MemFile, version map[uint64]int) {
	t.Helper()
	slot := make([]byte, page.Size)
	for no, s := range bp.ext.table {
		if err := mem.ReadAt(nil, slot, int64(s)*page.Size); err != nil {
			t.Fatal(err)
		}
		idx, resident := bp.table[no]
		if !resident {
			check(t, page.Wrap(slot), no, version[no])
			continue
		}
		if f := &bp.frames[idx]; f.extCopy && !bytes.Equal(f.buf, slot) {
			t.Errorf("page %d: frame claims the extension's copy but differs from slot %d", no, s)
		}
	}
	for no, pu := range bp.extPending {
		if idx, resident := bp.table[no]; resident && bp.frames[idx].extCopy && !bytes.Equal(bp.frames[idx].buf, pu.img) {
			t.Errorf("page %d: frame claims the extension's copy but differs from the queued put", no)
		}
	}
	free := 0
	for _, no := range bp.ext.slotPage {
		if no == 0 {
			free++
		}
	}
	if free != bp.ext.free {
		t.Errorf("the extension counts %d free slots, slotPage has %d", bp.ext.free, free)
	}
}

// A read-only loop over a set the extension holds, with a pool a quarter
// of it, writes nothing to the extension once warm: every victim came from
// the extension and is still there.
func TestCleanEvictionOfExtensionResidentPageWritesNothing(t *testing.T) {
	inSim(t, func(t *testing.T, p *sim.Proc) {
		ext := &slowFile{mem: vfs.NewMemFile("ext"), delay: time.Microsecond}
		bp, pages := stampedPool(t, p, 16, 64, ext, 128)
		pass := func() {
			for _, no := range pages {
				h, err := bp.Get(p, no)
				if err != nil {
					t.Fatal(err)
				}
				check(t, h.Page(), no, 1)
				h.Release()
				p.Sleep(5 * time.Microsecond) // the puts' turn
			}
		}
		// Warm: until no frame is left over from the load (those the
		// extension has yet to see, and their eviction puts them).
		fromLoad := func() (n int) {
			for i := range bp.frames {
				if f := &bp.frames[i]; f.valid && !f.extCopy {
					n++
				}
			}
			return n
		}
		for i := 0; i < 50 && fromLoad() > 0; i++ {
			pass()
		}
		if n := fromLoad(); n > 0 {
			t.Fatalf("warm-up left %d frames that never went through the extension", n)
		}
		st, written := bp.Stats, ext.written
		for i := 0; i < 4; i++ {
			pass()
		}
		if bp.Stats.ExtWrites != st.ExtWrites || ext.written != written {
			t.Errorf("read-only loop wrote %d pages (%d bytes) to the extension", bp.Stats.ExtWrites-st.ExtWrites, ext.written-written)
		}
		faults := int64(4*len(pages)) - (bp.Stats.Hits - st.Hits)
		if got := bp.Stats.ExtHits - st.ExtHits; got != faults || faults < int64(2*len(pages)) {
			t.Errorf("%d extension hits for %d faults", got, faults)
		}
		if bp.Stats.DiskReads != st.DiskReads {
			t.Errorf("%d faults fell to the data file", bp.Stats.DiskReads-st.DiskReads)
		}
		if bp.Stats.EvictClean-st.EvictClean < faults-int64(bp.Frames()) {
			t.Errorf("%d clean evictions for %d faults", bp.Stats.EvictClean-st.EvictClean, faults)
		}
	})
}

// A page faulted in from the extension and then dirtied is put again when
// evicted: the re-fault returns the new image and the slot holds it.
func TestDirtiedExtensionPageIsPutAgain(t *testing.T) {
	inSim(t, func(t *testing.T, p *sim.Proc) {
		mem := vfs.NewMemFile("ext")
		bp, pages := stampedPool(t, p, 4, 16, mem, 32)
		churn := func(skip uint64) {
			for _, no := range pages {
				if no == skip {
					continue
				}
				h, err := bp.Get(p, no)
				if err != nil {
					t.Fatal(err)
				}
				h.Release()
				p.Sleep(5 * time.Microsecond)
			}
		}
		a := pages[0]
		churn(0)
		churn(a)
		extHits := bp.Stats.ExtHits
		h, err := bp.Get(p, a)
		if err != nil {
			t.Fatal(err)
		}
		if bp.Stats.ExtHits != extHits+1 || !bp.frames[h.idx].extCopy || !h.FromExtension() {
			t.Fatalf("page %d did not come from the extension", a)
		}
		if hit, _ := bp.Get(p, a); hit.FromExtension() {
			t.Error("a hit claims to have fetched the page from the extension")
		} else {
			hit.Release()
		}
		stamp(h.Page(), a, 2)
		h.MarkDirty(0)
		if bp.frames[h.idx].extCopy {
			t.Error("a dirtied frame still claims the extension's copy")
		}
		h.Release()
		writes := bp.Stats.ExtWrites
		for i := 0; i < 50 && bp.InRAM(a); i++ {
			churn(a) // GDSF holds on to a dirty page for a while
		}
		if bp.InRAM(a) {
			t.Fatalf("page %d was not evicted", a)
		}
		if bp.Stats.ExtWrites == writes {
			t.Error("the dirtied page's eviction put nothing")
		}
		slot, ok := bp.ext.table[a]
		if !ok {
			t.Fatalf("page %d is not in the extension", a)
		}
		img := make([]byte, page.Size)
		if err := mem.ReadAt(p, img, int64(slot)*page.Size); err != nil {
			t.Fatal(err)
		}
		check(t, page.Wrap(img), a, 2)
		extHits = bp.Stats.ExtHits
		h, err = bp.Get(p, a)
		if err != nil {
			t.Fatal(err)
		}
		check(t, h.Page(), a, 2)
		if bp.Stats.ExtHits != extHits+1 {
			t.Error("the re-fault did not come from the extension")
		}
		h.Release()
	})
}

// The model test: procs Get, dirty, prefetch, and knock out parts of an
// extension far smaller than the page set (so slots are reclaimed all the
// time), while the tier is disabled and revived under them and under the
// readahead fetches in flight. Every Get must return the page's latest
// image and checkResidency must hold after every step. No proc yields
// between its check and its write, so the oracle is exact whatever the
// interleaving.
func TestResidencyModel(t *testing.T) {
	for seed := int64(1); seed <= 3; seed++ {
		t.Run(fmt.Sprintf("seed%d", seed), func(t *testing.T) {
			residencyModel(t, seed)
		})
	}
}

func residencyModel(t *testing.T, seed int64) {
	const slots = 6
	k := newKernel(t, seed)
	k.Go("t", func(p *sim.Proc) {
		mem := vfs.NewMemFile("ext")
		ext := &slowFile{mem: mem, delay: 30 * time.Microsecond, rdelay: 20 * time.Microsecond}
		bp, pages := stampedPool(t, p, 8, 24, ext, slots)
		version := map[uint64]int{}
		for _, no := range pages {
			version[no] = 1
		}
		wg := sim.NewWaitGroup(k)
		underFetch := 0 // knock-outs of the tier while a fetcher's read sleeps
		for c := int64(0); c < 3; c++ {
			rng := rand.New(rand.NewSource(seed*100 + c))
			wg.Add(1)
			k.Go("model", func(q *sim.Proc) {
				defer wg.Done()
				var step func(r int)
				step = func(r int) {
					switch {
					case r < 60:
						h, err := bp.Get(q, pages[rng.Intn(len(pages))])
						if err != nil {
							t.Error(err)
							return
						}
						no := h.PageNo()
						check(t, h.Page(), no, version[no])
						if h.FromExtension() && !bp.frames[h.idx].extCopy {
							t.Errorf("page %d: fetched from the extension into a frame that does not say so", no)
						}
						if rng.Intn(3) == 0 {
							version[no]++
							stamp(h.Page(), no, version[no])
							h.MarkDirty(0)
						}
						h.Release()
					case r < 75:
						// Aim at a page the extension holds, if the slot drawn has one.
						start := pages[rng.Intn(len(pages))]
						if no := bp.ext.slotPage[rng.Intn(slots)]; no != 0 {
							start = no
						}
						bp.ReadAheadWindow(q, start, 1+rng.Intn(4))
						q.Yield() // the fetcher starts its read
						if ext.fetches > 0 {
							underFetch++
							step(75 + rng.Intn(13)) // knock the tier out under it
						}
					case r < 80: // a stripe of the extension file is lost
						lo := rng.Intn(slots)
						bp.ext.InvalidateRange(int64(lo)*page.Size, int64(1+rng.Intn(slots-lo))*page.Size)
					case r < 83:
						bp.ext.disabled = true
					case r < 88: // salvage, as exp's bed wires it
						if bp.ext.disabled {
							lo := rng.Intn(slots)
							bp.ext.InvalidateRange(int64(lo)*page.Size, page.Size)
							bp.ext.Revive()
						}
					default:
						q.Sleep(time.Duration(rng.Intn(100)) * time.Microsecond)
					}
				}
				for i := 0; i < 1500 && !t.Failed(); i++ {
					step(rng.Intn(100))
					checkResidency(t, bp, mem, version)
				}
			})
		}
		wg.Wait(p)
		bp.ext.Revive()
		p.Sleep(10 * time.Millisecond) // every put lands
		checkResidency(t, bp, mem, version)
		for _, no := range pages {
			h, err := bp.Get(p, no)
			if err != nil {
				t.Fatal(err)
			}
			check(t, h.Page(), no, version[no])
			h.Release()
		}
		if bp.Stats.ReadAheadPages == 0 || underFetch == 0 {
			t.Errorf("%d pages prefetched, %d knock-outs under a fetch in flight", bp.Stats.ReadAheadPages, underFetch)
		}
		if bp.Stats.ExtHits == 0 || bp.Stats.EvictDirty == 0 || bp.Stats.ExtWrites == 0 {
			t.Errorf("the run never exercised the extension: %+v", bp.Stats)
		}
		// A write is a put that installed its mapping.
		if bp.Stats.ExtWrites != bp.ext.Puts {
			t.Errorf("ExtWrites = %d, the extension installed %d mappings", bp.Stats.ExtWrites, bp.ext.Puts)
		}
	})
	k.Run(time.Minute)
}

// The re-pin race: the victim sleeps in its write-back, another proc pins
// the page meanwhile (and may dirty it again), so evict keeps the frame.
// Whatever the frame then claims about the extension must be true, and the
// page's next eviction and re-fault must return its latest image.
func TestRepinDuringEvictionKeepsResidencyConsistent(t *testing.T) {
	for _, redirty := range []bool{false, true} {
		t.Run(fmt.Sprintf("redirty=%v", redirty), func(t *testing.T) {
			k := newKernel(t, 1)
			k.Go("t", func(p *sim.Proc) {
				s, _ := nullRig(k)
				data := &slowFile{mem: vfs.NewMemFile("data"), delay: time.Millisecond}
				cfg := DefaultConfig(2)
				cfg.WriterPeriod = 0
				bp, err := New(p, s, data, cfg)
				if err != nil {
					t.Fatal(err)
				}
				mem := vfs.NewMemFile("ext")
				bp.AttachExtension(mem, 8)
				version := map[uint64]int{}
				write := func(h *Handle) {
					no := h.PageNo()
					version[no]++
					stamp(h.Page(), no, version[no])
					h.MarkDirty(0)
				}
				var pages []uint64
				for i := 0; i < 4; i++ {
					h, no, err := bp.Allocate(p, page.TypeHeap)
					if err != nil {
						t.Fatal(err)
					}
					pages = append(pages, no)
					write(h)
					h.Release()
				}
				get := func(q *sim.Proc, no uint64) *Handle {
					h, err := bp.Get(q, no)
					if err != nil {
						t.Fatal(err)
					}
					check(t, h.Page(), no, version[no])
					return h
				}
				// a comes in from the extension and is dirtied; with the other
				// frame pinned it is b's only victim, and b's fault sleeps in
				// its write-back.
				a := pages[0]
				p.Sleep(time.Millisecond)
				h := get(p, a)
				if !bp.frames[h.idx].extCopy {
					t.Fatalf("page %d did not come from the extension", a)
				}
				write(h)
				h.Release()
				var b uint64
				var other *Handle
				for _, no := range pages[1:] {
					if !bp.InRAM(no) {
						b = no
					} else {
						other = get(p, no)
					}
				}
				done := sim.NewWaitGroup(k)
				done.Add(1)
				k.Go("repin", func(q *sim.Proc) {
					defer done.Done()
					q.Sleep(100 * time.Microsecond)
					hits := bp.Stats.Hits
					h := get(q, a)
					if bp.Stats.Hits != hits+1 {
						t.Error("the victim was not re-pinned in its frame")
					}
					if redirty {
						write(h)
					}
					q.Sleep(2 * time.Millisecond) // the write-back lands, evict gives up
					if !bp.InRAM(a) {
						t.Errorf("page %d was evicted under a pin", a)
					}
					checkResidency(t, bp, mem, version)
					h.Release()
				})
				get(p, b).Release()
				other.Release()
				done.Wait(p)
				checkResidency(t, bp, mem, version)
				for i := 0; i < 3; i++ {
					for _, no := range pages {
						get(p, no).Release()
						p.Sleep(10 * time.Microsecond)
						checkResidency(t, bp, mem, version)
					}
				}
			})
			k.Run(time.Minute)
		})
	}
}

// A fault sleeps in its extension read; a put meanwhile reclaims the slot
// for another page. The fault must treat what arrived as a miss and go to
// the data file, not install the other page. The same holds for a
// readahead window: its fetch must release the frame, and the Get that
// piggybacked on it then faults the page from the data file.
func TestExtFaultDetectsReclaimedSlot(t *testing.T) {
	for _, prefetch := range []bool{false, true} {
		t.Run(fmt.Sprintf("prefetch=%v", prefetch), func(t *testing.T) {
			k := newKernel(t, 1)
			k.Go("t", func(p *sim.Proc) {
				ext := &slowFile{mem: vfs.NewMemFile("ext"), rdelay: time.Millisecond}
				bp, pages := stampedPool(t, p, 2, 8, ext, 2)
				p.Sleep(time.Millisecond) // the puts land
				var a uint64
				var cold []uint64 // neither in RAM nor in the extension: each fault puts its victim
				for _, no := range pages {
					_, cached := bp.ext.table[no]
					switch {
					case bp.InRAM(no):
					case cached:
						a = no
					default:
						cold = append(cold, no)
					}
				}
				if a == 0 || len(cold) < 3 {
					t.Fatalf("setup: extension page %d, %d cold pages", a, len(cold))
				}
				st := bp.Stats
				if prefetch && bp.ReadAhead(p, []uint64{a}) != 1 {
					t.Fatalf("page %d was not reserved for readahead", a)
				}
				done := sim.NewWaitGroup(k)
				done.Add(1)
				k.Go("evictor", func(q *sim.Proc) {
					defer done.Done()
					q.Sleep(100 * time.Microsecond) // the fault of a is asleep in its read
					for _, no := range cold[:3] {
						h, err := bp.Get(q, no)
						if err != nil {
							t.Error(err)
							return
						}
						h.Release()
						q.Sleep(10 * time.Microsecond) // the flusher's turn
					}
				})
				h, err := bp.Get(p, a)
				if err != nil {
					t.Fatal(err)
				}
				check(t, h.Page(), a, 1)
				h.Release()
				done.Wait(p)
				if _, cached := bp.ext.table[a]; cached {
					t.Fatalf("page %d kept its slot: the race did not happen", a)
				}
				if bp.Stats.ExtHits != st.ExtHits || bp.Stats.ReadAheadPages != st.ReadAheadPages || bp.Stats.DiskReads != st.DiskReads+4 {
					t.Errorf("ext hits +%d, prefetched +%d, disk reads +%d; want the stale read counted as a miss (+0, +0, +4)",
						bp.Stats.ExtHits-st.ExtHits, bp.Stats.ReadAheadPages-st.ReadAheadPages, bp.Stats.DiskReads-st.DiskReads)
				}
			})
			k.Run(time.Minute)
		})
	}
}
