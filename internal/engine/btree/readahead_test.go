package btree

import (
	"bytes"
	"errors"
	"fmt"
	"testing"
	"time"

	"remotedb/internal/cluster"
	"remotedb/internal/engine/buffer"
	"remotedb/internal/fault"
	"remotedb/internal/hw/disk"
	"remotedb/internal/sim"
	"remotedb/internal/vfs"
)

// extFile is an extension file whose every read call — a vectored one
// included, as one doorbell-batched transfer — costs delay of virtual
// time. A read that would end past the reading proc's deadline stops at
// the deadline with fault.ErrSlow, as a budgeted remote read does. Writes
// cost nothing. io sums the virtual time spent inside reads.
type extFile struct {
	mem   *vfs.MemFile
	delay time.Duration
	io    time.Duration
	slow  []slowRead
}

// slowRead is one read abandoned on a blown deadline: by which proc, when.
type slowRead struct {
	proc string
	at   time.Duration
}

func (f *extFile) Name() string            { return "ext" }
func (f *extFile) Size() int64             { return f.mem.Size() }
func (f *extFile) Close(p *sim.Proc) error { return f.mem.Close(p) }

func (f *extFile) ReadAt(p *sim.Proc, b []byte, off int64) error {
	return f.ReadAtV(p, []vfs.Vec{{Off: off, Buf: b}})
}

func (f *extFile) ReadAtV(p *sim.Proc, vecs []vfs.Vec) error {
	t0 := p.Now()
	if dl := p.Deadline(); dl > 0 && t0+f.delay > dl {
		p.SleepUntil(dl)
		f.io += p.Now() - t0
		f.slow = append(f.slow, slowRead{proc: p.Name(), at: p.Now()})
		return fmt.Errorf("ext: read past the deadline: %w", fault.ErrSlow)
	}
	p.Sleep(f.delay)
	f.io += f.delay
	return f.mem.ReadAtV(p, vecs)
}

func (f *extFile) WriteAt(p *sim.Proc, b []byte, off int64) error {
	return f.mem.WriteAt(p, b, off)
}

func (f *extFile) WriteAtV(p *sim.Proc, vecs []vfs.Vec) error {
	return f.mem.WriteAtV(p, vecs)
}

// dataFile is the data file on a device that takes no time; with deny set
// every read fails, so a page can only come from RAM or the extension.
type dataFile struct {
	vfs.File
	deny bool
}

var errDenied = errors.New("data file read while the tree should live in the extension")

func (f *dataFile) ReadAt(p *sim.Proc, b []byte, off int64) error {
	if f.deny {
		return errDenied
	}
	return f.File.ReadAt(p, b, off)
}

// extTree is a tree of three 64-leaf ranges over a pool of a sixth of
// them, every page in the extension. Scanning the ranges in turn, each
// scan finds none of its leaves in RAM: the pool holds the tail of the
// range scanned before it.
type extTree struct {
	tr      *Tree
	ext     *extFile
	data    *dataFile
	perLeaf int // entries per leaf
}

const (
	rangeLeaves = 64
	extWidth    = 100 // value bytes per entry
)

func newExtTree(tb testing.TB, k *sim.Kernel, delay time.Duration, fn func(p *sim.Proc, et *extTree)) {
	cfg := cluster.DefaultConfig()
	cfg.MemoryBytes = 1 << 30
	s := cluster.NewServer(k, "db", cfg)
	k.Go("t", func(p *sim.Proc) {
		et := &extTree{
			ext:  &extFile{mem: vfs.NewMemFile("ext"), delay: delay},
			data: &dataFile{File: vfs.NewDeviceFile("data", disk.NullDevice{DeviceName: "null"})},
		}
		bcfg := buffer.DefaultConfig(rangeLeaves / 2)
		bcfg.WriterPeriod = 0
		bcfg.PageAccessCPU = 0
		bp, err := buffer.New(p, s, et.data, bcfg)
		if err != nil {
			tb.Fatal(err)
		}
		bp.AttachExtension(et.ext, 8*rangeLeaves)
		if et.tr, err = New(p, bp, "ext"); err != nil {
			tb.Fatal(err)
		}
		pairs := make([]Pair, 3*rangeLeaves*62) // 62 entries fill a leaf to 0.9
		for i := range pairs {
			pairs[i] = Pair{Key: key(i), Val: wideVal(i, extWidth)}
		}
		if err := et.tr.BulkLoad(p, pairs, 0.9); err != nil {
			tb.Fatal(err)
		}
		if err := bp.FlushAll(p); err != nil {
			tb.Fatal(err)
		}
		// A full scan counts the leaves and leaves every page it evicts in
		// the extension.
		it, err := et.tr.Scan(p, nil)
		if err != nil {
			tb.Fatal(err)
		}
		n := 0
		for ; ; n++ {
			if _, ok, err := it.Next(p); err != nil {
				tb.Fatal(err)
			} else if !ok {
				break
			}
		}
		leaves := it.leaves + 1
		if leaves < 3*rangeLeaves {
			tb.Fatalf("tree has %d leaves, want %d", leaves, 3*rangeLeaves)
		}
		et.perLeaf = n / leaves
		p.Sleep(time.Millisecond) // the flusher's puts land
		et.data.deny = true
		fn(p, et)
	})
	k.Run(time.Hour)
}

// bounds returns the key range of the r-th 64-leaf range.
func (et *extTree) bounds(r int) (lo, hi int) {
	lo = (r % 3) * rangeLeaves * et.perLeaf
	return lo, lo + rangeLeaves*et.perLeaf
}

// walk runs range r through one iterator, handing each entry and its
// index to each (when set).
func (et *extTree) walk(tb testing.TB, p *sim.Proc, r int, each func(i int, pair Pair)) {
	lo, hi := et.bounds(r)
	it, err := et.tr.Scan(p, key(lo))
	if err != nil {
		tb.Fatal(err)
	}
	for i := lo; i < hi; i++ {
		pair, ok, err := it.Next(p)
		if err != nil || !ok {
			tb.Fatalf("entry %d: ok %v, %v", i, ok, err)
		}
		if each != nil {
			each(i, pair)
		}
	}
}

// checkIdle fails unless every frame is unpinned and no fault is in flight.
func checkIdle(tb testing.TB, bp *buffer.Pool) {
	tb.Helper()
	if pinned, faulting := bp.InUse(); pinned != 0 || faulting != 0 {
		tb.Errorf("after the scan %d frames are pinned and %d faults in flight", pinned, faulting)
	}
}

// A scan whose leaves only a slow extension holds overlaps the window
// reads ahead of it with its own per-row CPU: it finishes in less than the
// sum of the two. A scan that waited for each window before touching its
// first page would take exactly that sum.
func TestScanOverlapsExtensionReads(t *testing.T) {
	const cpu = 2 * time.Microsecond
	k := newKernel(t, 1)
	newExtTree(t, k, 100*time.Microsecond, func(p *sim.Proc, et *extTree) {
		bp := et.tr.Pool()
		st := bp.Stats
		et.ext.io = 0
		t0 := p.Now()
		et.walk(t, p, 0, func(i int, pair Pair) {
			if !bytes.Equal(pair.Key, key(i)) || !bytes.Equal(pair.Val, wideVal(i, extWidth)) {
				t.Fatalf("entry %d: got key %x", i, pair.Key)
			}
			p.Sleep(cpu)
		})
		elapsed := p.Now() - t0
		cpuSum := time.Duration(rangeLeaves*et.perLeaf) * cpu
		t.Logf("scan %v; extension reads %v, CPU %v", elapsed, et.ext.io, cpuSum)
		if sum := et.ext.io + cpuSum; elapsed >= sum {
			t.Errorf("scan took %v, no less than its extension reads (%v) plus its CPU (%v)", elapsed, et.ext.io, cpuSum)
		}
		// Only the leaves read before readahead engages are demand faults:
		// no window evicts the pages of the one before it.
		if got := bp.Stats.ExtHits - st.ExtHits; got > 3 {
			t.Errorf("%d demand faults from the extension over %d leaves", got, rangeLeaves)
		}
		p.Sleep(time.Millisecond) // a window past the range lands
		checkIdle(t, bp)
	})
}

// Windows in flight cost no allocation: a scan whose 64 leaves arrive in
// a score of windows allocates its iterator and its first key, nothing
// per window or per page.
func TestExtensionScanAllocations(t *testing.T) {
	k := newKernel(t, 1)
	newExtTree(t, k, 13*time.Microsecond, func(p *sim.Proc, et *extTree) {
		bp := et.tr.Pool()
		r := 0
		scan := func() {
			et.walk(t, p, r, nil)
			r++
		}
		for i := 0; i < 3; i++ {
			scan() // the fetchers and their buffers, once
		}
		st := bp.Stats
		if got := testing.AllocsPerRun(6, scan); got > 16 {
			t.Errorf("a 64-leaf scan from the extension: %.0f allocations", got)
		}
		if got := bp.Stats.ReadAheadPages - st.ReadAheadPages; got < 7*rangeLeaves/2 {
			t.Errorf("%d pages prefetched over seven 64-leaf scans", got)
		}
	})
}

// A readahead window fetched past the scan's deadline: the fetcher's read
// stops at the deadline with fault.ErrSlow, the pool counts it and keeps
// the tier, and the demand path serves the pages from the data file.
func TestScanReadaheadUnderDeadline(t *testing.T) {
	const delay = 100 * time.Microsecond
	k := newKernel(t, 1)
	newExtTree(t, k, delay, func(p *sim.Proc, et *extTree) {
		et.data.deny = false
		bp := et.tr.Pool()
		lo, _ := et.bounds(0)
		it, err := et.tr.Scan(p, key(lo))
		if err != nil {
			t.Fatal(err)
		}
		// The demand reads of the second and third leaves fit the budget;
		// the first window, issued when the scan leaves the third, crosses
		// it.
		dl := p.Now() + 2*delay + delay/2
		p.SetDeadline(dl)
		for want := lo; want < lo+4*et.perLeaf; want++ {
			pair, ok, err := it.Next(p)
			if err != nil || !ok || !bytes.Equal(pair.Key, key(want)) {
				t.Fatalf("entry %d: ok %v, %v", want, ok, err)
			}
		}
		p.SetDeadline(0)
		if len(et.ext.slow) == 0 || et.ext.slow[0].at != dl || et.ext.slow[0].proc == p.Name() {
			t.Fatalf("reads abandoned on the deadline: %+v; want the fetcher's first, at %v", et.ext.slow, dl)
		}
		if got := bp.Stats.ExtSlow; got != int64(len(et.ext.slow)) {
			t.Errorf("Stats.ExtSlow = %d, %d reads blew the budget", got, len(et.ext.slow))
		}
		if !bp.ExtensionHealthy() {
			t.Error("a blown budget disabled the extension")
		}
		if bp.Stats.DiskReads == 0 {
			t.Error("no page fell back to the data file")
		}
		p.Sleep(time.Millisecond)
		checkIdle(t, bp)
	})
}
