// Package buffer implements the engine's buffer pool: a fixed set of
// 8 KiB frames over the database file with cost-aware GDSF eviction, a
// background lazy writer for dirty pages, and — the paper's scenario
// (i) — an optional buffer-pool extension (BPExt) holding clean evicted
// pages in a second-tier file that may live on SSD or in remote memory.
//
// The read path is RAM, then extension, then data file; the extension is
// strictly a performance tier and never compromises correctness — the
// paper's best-effort contract. When an access fails with
// vfs.ErrUnavailable the pool distinguishes two cases: a remote file in
// degraded mode (a stripe lost, re-lease in progress) keeps the tier
// attached and the access is simply a miss served from the data file,
// while a terminally unavailable backing file disables the tier for
// good. After a restripe, the salvage callback drops the mappings of
// the lost range (clean pages are re-readable from the data file) via
// InvalidateRange.
package buffer

import (
	"errors"
	"fmt"
	"time"

	"remotedb/internal/cluster"
	"remotedb/internal/engine/opt"
	"remotedb/internal/engine/page"
	"remotedb/internal/fault"
	"remotedb/internal/sim"
	"remotedb/internal/vfs"
)

// Config parameterizes a pool.
type Config struct {
	Frames        int           // local frames (local memory / 8 KiB)
	PageAccessCPU time.Duration // latch + lookup cost per logical access
	WriterPeriod  time.Duration // lazy-writer cadence (0 disables)

	// Readahead is the sequential readahead window in pages that range
	// scans prefetch ahead of the cursor (0 disables readahead).
	Readahead int
	// AdaptiveReadahead ramps and shrinks the window from the observed
	// prefetch hit/waste ratio instead of always offering the full
	// Readahead: the window starts small, doubles while prefetched pages
	// keep getting demanded, and halves when they keep getting evicted
	// unused. Readahead is then the ceiling, not the constant.
	AdaptiveReadahead bool
}

// DefaultConfig returns a small pool with a 10 ms lazy writer, GDSF
// eviction, and an adaptive readahead window of up to 8 pages.
func DefaultConfig(frames int) Config {
	return Config{
		Frames:            frames,
		PageAccessCPU:     time.Microsecond,
		WriterPeriod:      10 * time.Millisecond,
		Readahead:         8,
		AdaptiveReadahead: true,
	}
}

// ErrNoFrames is returned when every frame is pinned.
var ErrNoFrames = errors.New("buffer: all frames pinned")

type frame struct {
	buf    []byte
	pg     *page.Page // buf's typed view, made once: Handle.Page allocates nothing
	pageNo uint64
	valid  bool
	dirty  bool
	pins   int
	ver    uint64 // bumped on MarkDirty; detects writes racing with I/O

	// prefetched marks a frame installed by ReadAhead and not yet
	// demanded: cleared (and counted a hit) by the first Get, counted
	// wasted if the frame is evicted still carrying it. The hit/waste
	// tally drives the adaptive window.
	prefetched bool

	// extCopy: the image came from the extension (a slot or a queued put)
	// and is unchanged since, so the copy there, while kept, is identical.
	extCopy bool

	// GDSF bookkeeping. The hit path is two field writes (saturating
	// freq bump, re-anchor baseL at the current inflation value);
	// priority is recomputed lazily when the heap pops the frame.
	freq      int64   // saturating access count (see gdsfFreqCap)
	baseL     float64 // inflation value L at install or last hit
	lastEpoch uint64  // eviction epoch of the last hit (correlated-ref guard)
	seq       uint64  // bumped per install; stale heap entries are discarded
}

// Stats counts pool activity.
type Stats struct {
	Hits       int64 // satisfied from RAM
	ExtHits    int64 // satisfied from the extension
	DiskReads  int64 // read from the data file
	EvictClean int64
	EvictDirty int64 // dirty victims written back synchronously (not their neighbours)
	WriterIO   int64 // pages written by the lazy writer
	ExtWrites  int64

	EvictWriteBytes int64 // bytes written back by synchronous evictions, victims' neighbours too
	WriterBytes     int64 // bytes written back by the lazy writer
	ExtWriteBytes   int64 // bytes stashed into the extension
	ReadAheadPages  int64 // pages prefetched by ReadAhead
	ReadAheadHits   int64 // prefetched pages later demanded while resident
	ReadAheadWasted int64 // prefetched pages evicted without ever being demanded
	ExtSlow         int64 // extension accesses abandoned on a blown deadline budget
}

// Pool is the buffer pool.
type Pool struct {
	k      *sim.Kernel
	server *cluster.Server
	data   vfs.File
	cfg    Config

	frames   []frame
	table    map[uint64]int            // pageNo -> frame index
	avail    *sim.Cond                 // signalled when a pin is released
	faulting map[uint64]*sim.WaitGroup // in-flight page faults
	faultWGs []*sim.WaitGroup          // those of faults that are over, for reuse

	ext         *Extension
	extPutSlots *sim.Resource // bounds in-flight async extension writes

	// Extension puts: evictions append to the queue and one background
	// flusher drains it with a vectored write. extPending is the
	// read-through index over the queue: the latest not-yet-flushed image
	// per page, served straight from RAM so a re-fault never falls to disk
	// just because the put is still queued.
	extQueue   []extPut
	extSpare   []extPut // the retired batch's backing array, the next queue
	extPending map[uint64]extPut
	extCond    *sim.Cond
	extFlusher bool // flusher process started

	// imgFree holds the eviction images no put is using: evict takes one
	// for the page it queues and the flusher gives it back when it retires
	// the batch. Capped at the put-slot count, the most a queue can hold.
	imgFree [][]byte

	handles []*Handle // released handles, reissued by Get and Allocate
	runs    []*wbRun  // write-back scratch not in use, reused by evict and the writer

	// GDSF state: the miss costs of a page that falls to the data file
	// and to the extension tier (the opt tier table's HDD and remote
	// random-page latencies), a lazy min-heap of (frame, seq, priority)
	// entries, the inflation value L, the free list of invalid frames, and
	// the global eviction epoch (the correlated-reference clock for
	// noteHit).
	costDisk   time.Duration
	costExt    time.Duration
	gheap      []gdsfEntry
	gL         float64
	free       []int
	evictEpoch uint64

	prefetchSkipped []gdsfEntry // victimPrefetch's scratch

	// Adaptive-readahead state: the current window and the hit/waste
	// counter baselines of the last adjustment.
	raWin       int
	raBaseHit   int64
	raBaseWaste int64
	fetchers    []*fetcher // parked readahead fetchers

	nextPageNo uint64
	writerStop bool

	Stats Stats
}

// New creates a pool over the data file. The pool commits its frame
// memory on the server (so brokered memory accounting sees it).
func New(p *sim.Proc, server *cluster.Server, data vfs.File, cfg Config) (*Pool, error) {
	if cfg.Frames <= 0 {
		return nil, errors.New("buffer: need at least one frame")
	}
	if err := server.CommitLocal(int64(cfg.Frames) * page.Size); err != nil {
		return nil, err
	}
	bp := &Pool{
		k:          p.Kernel(),
		server:     server,
		data:       data,
		cfg:        cfg,
		frames:     make([]frame, cfg.Frames),
		table:      make(map[uint64]int, cfg.Frames),
		faulting:   make(map[uint64]*sim.WaitGroup),
		nextPageNo: 1, // page 0 reserved
	}
	bp.avail = sim.NewCond(bp.k)
	// The queue is drained by one flusher whose vectored write can sleep a
	// while; bound the in-flight puts by the pool size so a burst of
	// evictions during one flush does not overflow the queue and silently
	// drop pages from the extension.
	bp.extPutSlots = sim.NewResource(bp.k, "extput", max(64, cfg.Frames))
	bp.extCond = sim.NewCond(bp.k)
	bp.extPending = make(map[uint64]extPut)
	bp.costDisk = opt.DefaultCosts()[opt.TierHDD].RandomPage
	bp.costExt = opt.DefaultCosts()[opt.TierRemote].RandomPage
	bp.raWin = bp.cfg.Readahead
	if bp.cfg.AdaptiveReadahead && bp.raWin > 2 {
		bp.raWin = 2 // earn the full window by proving prefetches get used
	}
	for i := range bp.frames {
		bp.frames[i].buf = make([]byte, page.Size)
		bp.frames[i].pg = page.Wrap(bp.frames[i].buf)
	}
	// All frames start free; installs push them onto the heap.
	bp.free = make([]int, 0, cfg.Frames)
	for i := cfg.Frames - 1; i >= 0; i-- {
		bp.free = append(bp.free, i)
	}
	if cfg.WriterPeriod > 0 {
		bp.k.Go("lazywriter", bp.writerLoop)
	}
	return bp, nil
}

// AttachExtension enables the BPExt on file (SSD or remote memory).
func (bp *Pool) AttachExtension(file vfs.File, slots int) {
	bp.ext = newExtension(file, slots)
	if !bp.extFlusher {
		bp.extFlusher = true
		bp.k.Go("ext-flush", bp.extFlushLoop)
	}
}

// Extension returns the attached extension, or nil.
func (bp *Pool) Extension() *Extension { return bp.ext }

// ExtensionHealthy reports whether the extension is attached and usable.
func (bp *Pool) ExtensionHealthy() bool { return bp.ext != nil && !bp.ext.disabled }

// Server returns the hosting server.
func (bp *Pool) Server() *cluster.Server { return bp.server }

// Frames returns the frame count.
func (bp *Pool) Frames() int { return bp.cfg.Frames }

// Handle is a pinned page. It belongs to the caller from Get or Allocate
// until Release, and to the pool afterwards: the pool reissues released
// handles, so a handle must not be touched once released.
type Handle struct {
	bp    *Pool
	idx   int
	freed bool
	ext   bool // the Get that returned it fetched the page from the extension
}

// pin returns a handle on frame idx, whose pin the caller has counted.
func (bp *Pool) pin(idx int) *Handle {
	if n := len(bp.handles); n > 0 {
		h := bp.handles[n-1]
		bp.handles = bp.handles[:n-1]
		h.idx, h.freed, h.ext = idx, false, false
		return h
	}
	return &Handle{bp: bp, idx: idx}
}

// Page views the pinned frame.
func (h *Handle) Page() *page.Page { return h.bp.frames[h.idx].pg }

// FromExtension reports whether the Get that returned h fetched the page
// from the extension itself: not a hit, not a wait on another's fault.
func (h *Handle) FromExtension() bool { return h.ext }

// PageNo returns the pinned page's number.
func (h *Handle) PageNo() uint64 { return h.bp.frames[h.idx].pageNo }

// MarkDirty flags the frame for write-back and stamps the LSN.
func (h *Handle) MarkDirty(lsn uint64) {
	f := &h.bp.frames[h.idx]
	f.dirty = true
	f.extCopy = false
	f.ver++
	if lsn > 0 {
		h.Page().SetLSN(lsn)
	}
}

// Release unpins the page.
func (h *Handle) Release() {
	if h.freed {
		panic("buffer: double release")
	}
	h.freed = true
	f := &h.bp.frames[h.idx]
	if f.pins <= 0 {
		panic("buffer: release of unpinned frame")
	}
	f.pins--
	if f.pins == 0 {
		h.bp.avail.Signal()
	}
	h.bp.handles = append(h.bp.handles, h)
}

// Allocate creates a brand-new page of type t, pinned and dirty.
func (bp *Pool) Allocate(p *sim.Proc, t page.Type) (*Handle, uint64, error) {
	no := bp.nextPageNo
	bp.nextPageNo++
	idx, err := bp.victim(p)
	if err != nil {
		return nil, 0, err
	}
	f := &bp.frames[idx]
	f.pageNo = no
	f.valid = true
	f.dirty = true
	f.pins = 1
	f.prefetched = false
	f.extCopy = false
	bp.table[no] = idx
	bp.noteInstall(idx)
	f.pg.Init(no, t)
	return bp.pin(idx), no, nil
}

// PageCount returns the number of allocated pages.
func (bp *Pool) PageCount() uint64 { return bp.nextPageNo - 1 }

// Get pins the page, faulting it in from the extension or data file.
func (bp *Pool) Get(p *sim.Proc, pageNo uint64) (*Handle, error) {
	bp.server.Work(p, bp.cfg.PageAccessCPU)
	for {
		if idx, ok := bp.table[pageNo]; ok {
			f := &bp.frames[idx]
			f.pins++
			if f.prefetched {
				f.prefetched = false
				bp.Stats.ReadAheadHits++
			}
			bp.noteHit(idx)
			bp.Stats.Hits++
			return bp.pin(idx), nil
		}
		wg, inflight := bp.faulting[pageNo]
		if !inflight {
			break
		}
		// Another process is faulting this page in; piggyback on it.
		wg.Wait(p)
	}
	bp.beginFault(pageNo)
	defer bp.endFault(pageNo)

	idx, err := bp.victim(p)
	if err != nil {
		return nil, err
	}
	f := &bp.frames[idx]
	// Reserve the frame before sleeping in I/O so concurrent sweeps
	// cannot hand it out twice.
	f.pins = 1
	f.valid = true
	f.pageNo = pageNo
	f.dirty = false
	f.ver++
	f.prefetched = false
	// Fault the image in: extension first, then the data file.
	fromExt := false
	if bp.ExtensionHealthy() {
		if pu, queued := bp.extPending[pageNo]; queued {
			// The put is still in the flusher's queue: read through the
			// queued image (it is in RAM) instead of falling to disk.
			copy(f.buf, pu.img)
			fromExt = true
			bp.ext.Hits++
			bp.Stats.ExtHits++
		}
	}
	if !fromExt && bp.ExtensionHealthy() {
		ok, err := bp.ext.tryGet(p, pageNo, f.buf)
		if err != nil {
			// The cached copy is unreachable; drop the mapping so a later
			// (possibly restriped) read cannot see a stale image.
			bp.ext.invalidate(pageNo)
			bp.extFailed(err)
		} else if ok {
			fromExt = true
			bp.Stats.ExtHits++
		}
	}
	if !fromExt {
		if err := bp.data.ReadAt(p, f.buf, int64(pageNo)*page.Size); err != nil {
			f.valid = false
			f.pins = 0
			bp.releaseFrame(idx)
			return nil, fmt.Errorf("buffer: data read: %w", err)
		}
		bp.Stats.DiskReads++
	}
	f.extCopy = fromExt
	bp.table[pageNo] = idx
	bp.noteInstall(idx)
	h := bp.pin(idx)
	h.ext = fromExt
	return h, nil
}

// beginFault registers an in-flight fault of pageNo for Gets to piggyback
// on, on a WaitGroup of a fault that is over.
func (bp *Pool) beginFault(pageNo uint64) {
	var wg *sim.WaitGroup
	if n := len(bp.faultWGs); n > 0 {
		wg, bp.faultWGs = bp.faultWGs[n-1], bp.faultWGs[:n-1]
	} else {
		wg = sim.NewWaitGroup(bp.k)
	}
	wg.Add(1)
	bp.faulting[pageNo] = wg
}

// endFault ends the fault: its waiters retry, and its WaitGroup, which no
// one can reach once it is out of faulting, is kept for the next fault.
func (bp *Pool) endFault(pageNo uint64) {
	wg := bp.faulting[pageNo]
	delete(bp.faulting, pageNo)
	wg.Done()
	bp.faultWGs = append(bp.faultWGs, wg)
}

// evict writes back a dirty victim, stashes the (now clean) image in the
// extension unless the extension holds that very image already, and frees
// the frame. It reports ok=false when a concurrent pin or modification
// raced with the I/O, in which case the frame is left cached and the
// caller must pick another victim.
func (bp *Pool) evict(p *sim.Proc, idx int) (bool, error) {
	f := &bp.frames[idx]
	f.pins++ // guard: concurrent sweeps and the writer skip pinned frames
	if f.dirty {
		// Its dirty neighbours go clean with it, in one device run.
		w := bp.takeRun()
		bp.gather(w, idx)
		n, err := bp.writeBack(p, w)
		bp.putRun(w)
		bp.Stats.EvictWriteBytes += int64(n) * page.Size
		if err != nil {
			f.pins--
			return false, fmt.Errorf("buffer: writeback: %w", err)
		}
		if f.dirty {
			// Modified during the write: still dirty, cannot evict now.
			f.pins--
			return false, nil
		}
		bp.Stats.EvictDirty++
	} else {
		bp.Stats.EvictClean++
	}
	if bp.ext != nil && !(f.extCopy && bp.extHolds(f.pageNo)) {
		// Any extension copy, mapped or queued, predates this eviction's image:
		// drop it now so a dropped or late async put can never leave a stale
		// page serving reads, nor Revive a disabled tier's mapping of one.
		bp.ext.invalidate(f.pageNo)
		delete(bp.extPending, f.pageNo)
		bp.ext.putVer[f.pageNo]++
		ver := bp.ext.putVer[f.pageNo]
		// Stash the clean image in the extension asynchronously (SQL
		// Server's BPExt writes happen off the eviction critical path): it
		// joins the flusher's queue and ships in a vectored group write.
		// In-flight puts are bounded; insertion is best-effort.
		canPut := !bp.ext.disabled
		gotSlot := canPut && bp.extPutSlots.TryAcquire(1)
		if !gotSlot && canPut && !bp.extDegraded() {
			// Queue full: wait for the flusher to swap it out rather than
			// dropping the page — a dropped page costs a spindle seek on
			// its next fault, far worse than a short write-throttle stall.
			// Unless the extension file is degraded: then the flusher may
			// be stuck in retry/failover and blocking here would back
			// every eviction (and every faulting client's pinned frame)
			// up behind it, so insertion reverts to best-effort drops.
			bp.extPutSlots.Acquire(p, 1)
			gotSlot = true
		}
		if gotSlot {
			img := bp.takeImage()
			copy(img, f.buf)
			pu := extPut{pageNo: f.pageNo, img: img, ver: ver}
			bp.extQueue = append(bp.extQueue, pu)
			bp.extPending[f.pageNo] = pu
			bp.extCond.Signal()
		}
	}
	f.pins--
	if f.pins > 0 || f.dirty {
		// Re-pinned (or re-dirtied) while we slept in I/O: keep it.
		return false, nil
	}
	if f.prefetched {
		f.prefetched = false
		bp.Stats.ReadAheadWasted++
	}
	delete(bp.table, f.pageNo)
	f.valid = false
	bp.evictEpoch++
	return true, nil
}

// extHolds reports whether the extension still has pageNo, mapped or queued:
// slot reclaim, salvage, a failed or dropped batch forget it behind extCopy.
func (bp *Pool) extHolds(pageNo uint64) bool {
	_, mapped := bp.ext.table[pageNo]
	_, queued := bp.extPending[pageNo]
	return mapped || queued
}

// takeImage returns a page-sized buffer for an eviction image.
func (bp *Pool) takeImage() []byte {
	if n := len(bp.imgFree); n > 0 {
		img := bp.imgFree[n-1]
		bp.imgFree = bp.imgFree[:n-1]
		return img
	}
	return make([]byte, page.Size)
}

// retireImage takes back an eviction image whose put is over. The caller
// must have removed it from extPending first: a retired image is
// overwritten by the next eviction.
func (bp *Pool) retireImage(img []byte) {
	if len(bp.imgFree) < bp.extPutSlots.Capacity() {
		bp.imgFree = append(bp.imgFree, img)
	}
}

// extFailed decides the extension's fate after an access error. A
// degraded remote file (stripe lost but a re-lease is in progress) keeps
// the tier attached — the access already fell back to the data file, and
// the restripe will restore service. A detected-corrupt block likewise
// keeps the tier: the integrity layer already refused to serve the bad
// bytes (this access fell back to the data file), poisoned the block,
// and salvage/overwrite will heal it. A deadline-budget miss
// (fault.ErrSlow) is transient by definition — the donor was slow, not
// gone — so it never disables the tier: this access fell back to the
// data file and the next one retries remote. Anything terminal disables
// the tier for good (best-effort semantics: the engine keeps running
// off the data file).
func (bp *Pool) extFailed(err error) {
	if bp.ext == nil {
		return
	}
	if fault.Slow(err) {
		bp.Stats.ExtSlow++
		return
	}
	if errors.Is(err, vfs.ErrUnavailable) || errors.Is(err, vfs.ErrCorrupt) {
		if u, ok := bp.ext.file.(interface{ Unavailable() bool }); ok && !u.Unavailable() {
			return // degraded, not dead: repair is pending
		}
	}
	bp.ext.disabled = true
}

// writerLoop is the lazy writer: it flushes dirty unpinned pages in the
// background so foreground evictions rarely stall on a write.
func (bp *Pool) writerLoop(p *sim.Proc) {
	for !bp.writerStop {
		p.Sleep(bp.cfg.WriterPeriod)
		bp.writerFlushBatch(p)
	}
}

// StopWriter terminates the lazy writer (used at shutdown in tests).
func (bp *Pool) StopWriter() { bp.writerStop = true }

// FlushAll synchronously writes every dirty page (checkpoint).
func (bp *Pool) FlushAll(p *sim.Proc) error {
	for i := range bp.frames {
		f := &bp.frames[i]
		if !f.valid || !f.dirty {
			continue
		}
		f.pg.Seal()
		if err := bp.data.WriteAt(p, f.buf, int64(f.pageNo)*page.Size); err != nil {
			return err
		}
		f.dirty = false
	}
	return nil
}

// ResidentPages returns the page numbers currently cached in RAM, in
// frame order — the input to buffer-pool priming (scenario iv).
func (bp *Pool) ResidentPages() []uint64 {
	var out []uint64
	for i := range bp.frames {
		if bp.frames[i].valid {
			out = append(out, bp.frames[i].pageNo)
		}
	}
	return out
}

// InRAM reports whether a page is cached in a frame.
func (bp *Pool) InRAM(pageNo uint64) bool {
	_, ok := bp.table[pageNo]
	return ok
}

// PrimeInstall force-loads a page image into the pool (used by the
// priming scenario); it is a no-op if the page is already resident.
func (bp *Pool) PrimeInstall(p *sim.Proc, pageNo uint64, img []byte) error {
	if bp.InRAM(pageNo) {
		return nil
	}
	idx, err := bp.victim(p)
	if err != nil {
		return err
	}
	f := &bp.frames[idx]
	copy(f.buf, img)
	f.pageNo = pageNo
	f.valid = true
	f.dirty = false
	f.pins = 0
	f.prefetched = false
	f.extCopy = false
	bp.table[pageNo] = idx
	bp.noteInstall(idx)
	return nil
}

// --- Extension ----------------------------------------------------------

// Extension is the second cache tier: a slot array in a file.
type Extension struct {
	file     vfs.File
	slots    int
	table    map[uint64]int    // pageNo -> slot
	slotPage []uint64          // slot -> pageNo (0 = free); written only by setSlot
	free     int               // number of free slots in slotPage
	putVer   map[uint64]uint64 // latest scheduled put per page
	hand     int
	disabled bool

	Hits, Misses, Puts int64
}

func newExtension(file vfs.File, slots int) *Extension {
	return &Extension{
		file:     file,
		slots:    slots,
		table:    make(map[uint64]int, slots),
		slotPage: make([]uint64, slots),
		free:     slots,
		putVer:   make(map[uint64]uint64),
	}
}

func (e *Extension) tryGet(p *sim.Proc, pageNo uint64, dst []byte) (bool, error) {
	slot, ok := e.table[pageNo]
	if !ok {
		e.Misses++
		return false, nil
	}
	if err := e.file.ReadAt(p, dst, int64(slot)*page.Size); err != nil {
		return false, err
	}
	if e.stale(slot, pageNo) {
		e.Misses++
		return false, nil
	}
	e.Hits++
	return true, nil
}

// stale reports whether a read of slot for pageNo that just slept may have
// fetched something else: a put reclaimed the slot, or salvage dropped it.
func (e *Extension) stale(slot int, pageNo uint64) bool {
	return e.disabled || e.slotPage[slot] != pageNo
}

// invalidate drops the mapping for pageNo (the slot becomes free).
func (e *Extension) invalidate(pageNo uint64) {
	if slot, ok := e.table[pageNo]; ok {
		delete(e.table, pageNo)
		e.setSlot(slot, 0)
	}
}

// InvalidateRange drops every slot mapping whose backing bytes fall in
// [off, off+n) of the extension file and returns the number dropped.
// This is the buffer-pool extension's salvage after a stripe of its
// remote file was lost and re-leased: the cached pages there are gone
// (the replacement region is zeroed), but every one of them was clean,
// so forgetting the mappings is a complete recovery — future reads fall
// through to the data file and repopulate naturally.
func (e *Extension) InvalidateRange(off, n int64) int {
	lo := off / page.Size
	hi := (off + n + page.Size - 1) / page.Size
	if hi > int64(e.slots) {
		hi = int64(e.slots)
	}
	dropped := 0
	for slot := lo; slot >= 0 && slot < hi; slot++ {
		if pn := e.slotPage[slot]; pn != 0 {
			delete(e.table, pn)
			e.setSlot(int(slot), 0)
			dropped++
		}
	}
	return dropped
}

// Revive re-enables a disabled extension after its backing file was
// repaired. Callers must have invalidated any mappings that pointed at
// lost data first.
func (e *Extension) Revive() { e.disabled = false }

// allocSlot finds the next free slot from the hand or, when none is
// free, reclaims the one at the hand (FIFO sweep), evicting its mapping.
func (e *Extension) allocSlot() int {
	s := e.hand
	if e.free > 0 {
		for e.slotPage[s] != 0 {
			s = (s + 1) % e.slots
		}
	} else {
		delete(e.table, e.slotPage[s])
		e.setSlot(s, 0)
	}
	e.hand = (s + 1) % e.slots
	return s
}

// setSlot maps slot to pageNo (0 frees it) and keeps the free count.
func (e *Extension) setSlot(slot int, pageNo uint64) {
	if e.slotPage[slot] == 0 {
		e.free--
	}
	if pageNo == 0 {
		e.free++
	}
	e.slotPage[slot] = pageNo
}
