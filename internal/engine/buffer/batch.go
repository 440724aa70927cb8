// Batched (vectored) buffer-pool I/O: the lazy writer flushes its dirty
// batch with one scatter-gather write, evicted pages ride to the
// extension tier in grouped vectored puts drained by a single background
// flusher, and range scans prefetch readahead windows with one batched
// fault. On a remote-memory backing file each of these turns N charged
// round trips into one doorbell-batched transfer per destination server.
package buffer

import (
	"cmp"
	"slices"
	"time"

	"remotedb/internal/engine/page"
	"remotedb/internal/sim"
	"remotedb/internal/vfs"
)

// writerBatch is the most dirty pages one lazy-writer round writes.
const writerBatch = 128

// writerFlushBatch is the lazy writer's vectored round: up to
// writerBatch dirty unpinned frames, each with its run of dirty
// neighbours (gather), are written per round, in sub-batches that stop
// picking at a quarter of the pool — every page stays pinned until its
// write lands, and pinning more would starve foreground victims in small
// pools. Frames re-dirtied while the I/O slept stay dirty.
func (bp *Pool) writerFlushBatch(p *sim.Proc) {
	lim := writerBatch
	if q := len(bp.frames) / 4; q > 0 && lim > q {
		lim = q
	}
	w := bp.takeRun()
	defer bp.putRun(w)
	written, next := 0, 0
	for written < writerBatch && next < len(bp.frames) {
		for ; next < len(bp.frames) && len(w.pages) < lim; next++ {
			f := &bp.frames[next]
			if !f.valid || !f.dirty || f.pins > 0 {
				continue
			}
			bp.gather(w, next)
		}
		if len(w.pages) == 0 {
			return
		}
		n, _ := bp.writeBack(p, w)
		bp.Stats.WriterIO += int64(n)
		bp.Stats.WriterBytes += int64(n) * page.Size
		written += n
	}
}

// maxRun caps a gathered write-back run: 32 pages, 256 KiB.
const maxRun = 32

// wbPage is a page of a write-back vector and the version it was sealed at.
type wbPage struct {
	idx int
	v0  uint64
	vec vfs.Vec
}

// wbRun is a write-back vector's scratch, kept by the pool for reuse.
type wbRun struct {
	pages []wbPage
	vecs  []vfs.Vec
}

// gather pins, seals and appends to w the dirty frame idx and the pages
// next to it that are resident, dirty and unpinned, at most maxRun in all:
// a device file writes adjacent pages with one seek, not one each.
func (bp *Pool) gather(w *wbRun, idx int) {
	gatherable := func(no uint64) bool {
		i, ok := bp.table[no]
		return ok && bp.frames[i].dirty && bp.frames[i].pins == 0
	}
	lo := bp.frames[idx].pageNo
	hi := lo
	for hi-lo < maxRun-1 && gatherable(lo-1) {
		lo--
	}
	for hi-lo < maxRun-1 && gatherable(hi+1) {
		hi++
	}
	for no := lo; no <= hi; no++ {
		i := bp.table[no]
		f := &bp.frames[i]
		f.pins++
		f.pg.Seal()
		w.pages = append(w.pages, wbPage{idx: i, v0: f.ver, vec: vfs.Vec{Off: int64(no) * page.Size, Buf: f.buf}})
	}
}

// writeBack writes w's pages with one vectored write in elevator order (a
// device file merges only runs adjacent in the vector), unpins them, cleans
// each one whose version held (none on error), and empties w. It returns
// how many it cleaned.
func (bp *Pool) writeBack(p *sim.Proc, w *wbRun) (int, error) {
	slices.SortFunc(w.pages, func(a, b wbPage) int { return cmp.Compare(a.vec.Off, b.vec.Off) })
	w.vecs = w.vecs[:0]
	for _, pg := range w.pages {
		w.vecs = append(w.vecs, pg.vec)
	}
	err := vfs.WriteVec(p, bp.data, w.vecs)
	cleaned := 0
	for _, pg := range w.pages {
		f := &bp.frames[pg.idx]
		f.pins--
		if f.pins == 0 {
			bp.avail.Signal()
		}
		if err == nil && f.ver == pg.v0 {
			f.dirty = false
			cleaned++
		}
	}
	w.pages = w.pages[:0]
	return cleaned, err
}

// takeRun returns an empty write-back scratch; putRun gives it back.
func (bp *Pool) takeRun() *wbRun {
	if n := len(bp.runs); n > 0 {
		w := bp.runs[n-1]
		bp.runs = bp.runs[:n-1]
		return w
	}
	return &wbRun{}
}

func (bp *Pool) putRun(w *wbRun) { bp.runs = append(bp.runs, w) }

// extPut is one queued extension write: the page image captured at
// eviction time and the putVer stamp that detects supersession.
type extPut struct {
	pageNo uint64
	img    []byte
	ver    uint64
}

// extFlushLoop is the single background flusher for batched extension
// puts: it drains whatever the queue has accumulated and ships it as one
// vectored write. The proc blocks on the cond when idle, which does not
// keep the simulation alive.
func (bp *Pool) extFlushLoop(p *sim.Proc) {
	for {
		for len(bp.extQueue) == 0 {
			bp.extCond.Wait(p)
		}
		batch := bp.extQueue
		bp.extQueue = bp.extSpare[:0]
		// Free the queue slots as soon as the batch is swapped out:
		// evictions arriving while the vectored write below sleeps must
		// be able to enqueue, or every flush window would silently drop
		// pages from the extension.
		bp.extPutSlots.Release(len(batch))
		bp.flushExtBatch(p, batch)
		clear(batch)
		bp.extSpare = batch
	}
}

// flushExtBatch writes a batch of evicted images into extension slots
// with one scatter-gather call: superseded entries (a newer eviction of
// the same page re-stamped putVer) are dropped, and a mapping is
// installed only if its slot still belongs to the page and its stamp is
// still the latest. When the extension is full allocSlot may reclaim an
// earlier batch entry's slot; the later entry wins it and the earlier one
// is not written.
func (bp *Pool) flushExtBatch(p *sim.Proc, batch []extPut) {
	// Whatever happens below, these queue entries are no longer pending:
	// drop each page's read-through entry unless a newer eviction
	// replaced it (that entry holds the newer image, which rides a later
	// batch), and only then give this batch's images back — so the free
	// list never holds an image extPending still reads through.
	defer func() {
		for _, pu := range batch {
			if cur, ok := bp.extPending[pu.pageNo]; ok && &cur.img[0] == &pu.img[0] {
				delete(bp.extPending, pu.pageNo)
			}
			bp.retireImage(pu.img)
		}
	}()
	if !bp.ExtensionHealthy() {
		return
	}
	if bp.extDegraded() {
		// A stripe is down or under repair: the vectored put would
		// stall in retry/failover behind the bad element, and every
		// eviction would back up behind the staging queue while it
		// slept. Extension insertion is best-effort — drop the batch;
		// these pages were invalidated at eviction time and simply fall
		// to the data file on their next miss.
		return
	}
	e := bp.ext
	type live struct {
		pu   extPut
		slot int
	}
	var lives []live
	var vecs []vfs.Vec
	for _, pu := range batch {
		if e.putVer[pu.pageNo] != pu.ver {
			continue // superseded by a newer eviction's image
		}
		slot, ok := e.table[pu.pageNo]
		if !ok {
			slot = e.allocSlot()
			e.setSlot(slot, pu.pageNo)
		}
		lives = append(lives, live{pu: pu, slot: slot})
	}
	// Write only the elements that kept their slot: overlapping elements of
	// one vector land in no set order on a file that issues them together.
	lives = slices.DeleteFunc(lives, func(lv live) bool { return e.slotPage[lv.slot] != lv.pu.pageNo })
	for _, lv := range lives {
		vecs = append(vecs, vfs.Vec{Off: int64(lv.slot) * page.Size, Buf: lv.pu.img})
	}
	if len(vecs) == 0 {
		return
	}
	if err := vfs.WriteVec(p, e.file, vecs); err != nil {
		for _, lv := range lives {
			delete(e.table, lv.pu.pageNo)
			if e.slotPage[lv.slot] == lv.pu.pageNo {
				e.setSlot(lv.slot, 0)
			}
		}
		bp.extFailed(err)
		return
	}
	for _, lv := range lives {
		if e.slotPage[lv.slot] != lv.pu.pageNo {
			continue // salvage dropped the slot while the write slept
		}
		if e.putVer[lv.pu.pageNo] != lv.pu.ver {
			e.setSlot(lv.slot, 0) // superseded while the write slept
			continue
		}
		e.table[lv.pu.pageNo] = lv.slot
		e.Puts++
		bp.Stats.ExtWrites++
		bp.Stats.ExtWriteBytes += page.Size
	}
}

// ReadaheadPages returns the scan readahead window in pages, or 0 when
// readahead is disabled (a zero Readahead). With
// AdaptiveReadahead this is the current feedback-adapted window, so
// scans that clamp to it automatically ramp and shrink with it.
func (bp *Pool) ReadaheadPages() int {
	if bp.cfg.Readahead <= 0 {
		return 0
	}
	if bp.cfg.AdaptiveReadahead {
		return bp.raWin
	}
	return bp.cfg.Readahead
}

// adaptReadahead resizes the window from the prefetch hit/waste tally:
// once enough prefetched pages have settled (demanded, or evicted
// unused) since the last adjustment, a waste share of a sixth or more
// halves the window and a share of a twelfth or less doubles it,
// bounded by [1, cfg.Readahead]. Waste is observed at eviction, so the
// signal lags by roughly one pool churn — the reason adjustments demand
// two windows' worth of evidence rather than reacting per prefetch.
func (bp *Pool) adaptReadahead() {
	if !bp.cfg.AdaptiveReadahead {
		return
	}
	hit := bp.Stats.ReadAheadHits - bp.raBaseHit
	waste := bp.Stats.ReadAheadWasted - bp.raBaseWaste
	settled := hit + waste
	if settled < int64(2*bp.raWin) {
		return
	}
	bp.raBaseHit, bp.raBaseWaste = bp.Stats.ReadAheadHits, bp.Stats.ReadAheadWasted
	switch {
	case waste*6 >= settled:
		bp.raWin /= 2
		if bp.raWin < 1 {
			bp.raWin = 1
		}
	case waste*12 <= settled:
		bp.raWin *= 2
		if bp.raWin > bp.cfg.Readahead {
			bp.raWin = bp.cfg.Readahead
		}
	}
}

// ReadAheadWindow prefetches the readahead window starting at page
// start, clamped to maxPages (when positive), allocated pages, and a
// quarter of the pool, and returns what ReadAhead returns for it. Callers
// that ramp their window (slow-start scans) pass the ramped size as
// maxPages.
func (bp *Pool) ReadAheadWindow(p *sim.Proc, start uint64, maxPages int) int {
	bp.adaptReadahead()
	want := bp.ReadaheadPages()
	if maxPages > 0 && want > maxPages {
		want = maxPages
	}
	if want == 0 {
		return 0
	}
	if lim := len(bp.frames) / 4; want > lim {
		want = lim
	}
	var window [16]uint64 // a default-sized window stays on the stack
	nos := window[:0]
	for no := start; no < start+uint64(want) && no < bp.nextPageNo; no++ {
		nos = append(nos, no)
	}
	return bp.ReadAhead(p, nos)
}

// ReadAhead prefetches the given pages without making the caller wait,
// and returns how many it reserved. It reserves in no virtual time,
// skipping pages resident, already faulting, not yet allocated, or — with
// a healthy extension — absent from it: in steady state the warm set
// lives in the extension, so an absent page is cold and a speculative
// fault would pay a spindle seek for a page the scan may never visit. A
// page in the put queue is installed at once from its RAM image; every
// other page gets a pinned frame and an in-flight fault that a demand Get
// piggybacks on. A pool-owned fetcher then reads the window under the
// caller's deadline, in one vectored read of the extension (one charged
// round trip, not one per page) or, without one, one elevator-merged read
// of the data file. Prefetched pages count in Stats.ReadAheadPages, never
// DiskReads or ExtHits. Prefetching is best-effort: pool pressure stops it
// early.
func (bp *Pool) ReadAhead(p *sim.Proc, pageNos []uint64) int {
	var fe *fetcher
	n := 0
	for _, no := range pageNos {
		if no == 0 || no >= bp.nextPageNo {
			continue
		}
		if _, ok := bp.table[no]; ok {
			continue
		}
		if _, inflight := bp.faulting[no]; inflight {
			continue
		}
		if bp.extDegraded() {
			// A stripe of the extension file is down or under repair: a
			// vectored read could stall in retry/backoff behind the one bad
			// element while holding every reserved frame pinned. Demand
			// faults handle degradation per page; prefetch sits it out.
			break
		}
		slot, pu, queued := -1, extPut{}, false
		if bp.ExtensionHealthy() {
			if pu, queued = bp.extPending[no]; !queued {
				s, cached := bp.ext.table[no]
				if !cached {
					continue // cold page: leave it to the demand path
				}
				slot = s
			}
		}
		// Never sleeps, so nothing checked above can change under us.
		idx, err := bp.victimPrefetch(p)
		if err != nil {
			break // pool under pressure: prefetch what we could
		}
		f := &bp.frames[idx]
		f.valid = true
		f.pageNo = no
		f.dirty = false
		f.ver++
		n++
		if queued {
			copy(f.buf, pu.img)
			bp.installPrefetched(idx, true)
			continue
		}
		f.pins = 1 // reserved until the fetcher installs or releases it
		if fe == nil {
			// A parked fetcher takes the window, or a new one does.
			if last := len(bp.fetchers) - 1; last >= 0 {
				fe, bp.fetchers = bp.fetchers[last], bp.fetchers[:last]
			} else {
				fe = &fetcher{}
			}
		}
		bp.beginFault(no)
		fe.win = append(fe.win, raPage{no: no, idx: idx, slot: slot})
	}
	if fe != nil {
		fe.deadline = p.Deadline()
		if fe.wake == nil {
			fe.wake = sim.NewCond(bp.k)
			bp.k.Go("readahead", func(q *sim.Proc) { bp.fetchLoop(q, fe) })
		} else {
			fe.wake.Signal()
		}
	}
	return n
}

// raPage is one page reserved for readahead: its frame and the extension
// slot it is read from (-1 = the data file).
type raPage struct {
	no   uint64
	idx  int
	slot int
}

// fetcher is a pool-owned proc that reads reserved windows. Between
// windows it parks on wake, idle, and the next window reuses it.
type fetcher struct {
	win      []raPage
	vecs     []vfs.Vec
	deadline time.Duration // the reserving proc's
	wake     *sim.Cond     // nil until the fetcher's proc is started
}

// fetchLoop is a fetcher's proc: it reads its window, then parks.
func (bp *Pool) fetchLoop(p *sim.Proc, fe *fetcher) {
	for {
		p.SetDeadline(fe.deadline)
		bp.fetch(p, fe)
		fe.win = fe.win[:0]
		bp.fetchers = append(bp.fetchers, fe)
		fe.wake.Wait(p)
	}
}

// fetch reads a reserved window with one vectored read and installs each
// page, or releases its frame if the read failed, the page was installed
// meanwhile, or its extension slot changed hands while the read slept.
// A window is all extension pages or all data-file pages: the extension's
// health, which decides, cannot change while ReadAhead reserves.
func (bp *Pool) fetch(p *sim.Proc, fe *fetcher) {
	win := fe.win
	ext := win[0].slot >= 0
	file := bp.data
	if ext {
		file = bp.ext.file
	}
	fe.vecs = fe.vecs[:0]
	for _, pe := range win {
		off := int64(pe.no) * page.Size
		if ext {
			off = int64(pe.slot) * page.Size
		}
		fe.vecs = append(fe.vecs, vfs.Vec{Off: off, Buf: bp.frames[pe.idx].buf})
	}
	err := vfs.ReadVec(p, file, fe.vecs)
	if err != nil && ext {
		bp.extFailed(err)
	}
	for _, pe := range win {
		f := &bp.frames[pe.idx]
		f.pins = 0
		if _, raced := bp.table[pe.no]; err != nil || raced || ext && bp.ext.stale(pe.slot, pe.no) {
			f.valid = false
			bp.releaseFrame(pe.idx)
		} else {
			bp.installPrefetched(pe.idx, ext)
		}
		bp.endFault(pe.no)
		bp.avail.Signal()
	}
}

// installPrefetched maps an unpinned reserved frame, its image in place,
// as a prefetched page.
func (bp *Pool) installPrefetched(idx int, extCopy bool) {
	f := &bp.frames[idx]
	f.prefetched = true
	f.lastEpoch = bp.evictEpoch
	f.extCopy = extCopy
	bp.table[f.pageNo] = idx
	bp.noteInstall(idx)
	bp.Stats.ReadAheadPages++
}

// InUse returns the number of pinned frames and of page faults in flight,
// readahead windows included: both are zero once every handle is
// released and every window has landed.
func (bp *Pool) InUse() (pinned, faulting int) {
	for i := range bp.frames {
		if bp.frames[i].pins > 0 {
			pinned++
		}
	}
	return pinned, len(bp.faulting)
}

// victimPrefetch finds a frame for speculative readahead without ever
// waiting for one. Prefetch is best-effort: it takes the free list or a
// clean, unpinned, low-priority victim, and gives up rather than sleep
// on a pin release, write back a dirty page, or stall on extension-put
// throttling — a speculative read must never steal capacity or block in
// the way of the demand faults it is supposed to be helping. Nor does it
// take an awaited frame. (The blocking variant is victim.)
func (bp *Pool) victimPrefetch(p *sim.Proc) (int, error) {
	for len(bp.free) > 0 {
		idx := bp.free[len(bp.free)-1]
		bp.free = bp.free[:len(bp.free)-1]
		if !bp.frames[idx].valid {
			return idx, nil
		}
	}
	if bp.extPutThrottled() {
		return 0, ErrNoFrames
	}
	// Entries passed over (pinned, dirty or awaited) go back on the heap
	// when the search ends, not immediately — re-pushing the current
	// minimum would just pop it again next iteration. The search never
	// sleeps, so one scratch list serves every call.
	skipped := bp.prefetchSkipped[:0]
	defer func() {
		for _, e := range skipped {
			bp.heapPush(e)
		}
		bp.prefetchSkipped = skipped[:0]
	}()
	budget := 2 * len(bp.frames)
	for pops := 0; pops < budget; pops++ {
		e, ok := bp.heapPop()
		if !ok {
			break
		}
		f := &bp.frames[e.idx]
		if !f.valid || f.seq != e.seq {
			continue // stale entry from a prior install
		}
		cur := bp.pri(f)
		if cur > e.pri {
			bp.heapPush(gdsfEntry{idx: e.idx, seq: e.seq, pri: cur})
			continue
		}
		if f.pins > 0 || f.dirty || bp.awaited(f) {
			skipped = append(skipped, gdsfEntry{idx: e.idx, seq: e.seq, pri: cur})
			continue
		}
		// Clean + unpinned + put slots available: this eviction cannot
		// sleep, so the state checked above cannot change under us.
		evicted, err := bp.evict(p, e.idx)
		if err != nil {
			skipped = append(skipped, gdsfEntry{idx: e.idx, seq: e.seq, pri: cur})
			return 0, err
		}
		if evicted {
			if cur > bp.gL {
				bp.gL = cur
			}
			return e.idx, nil
		}
		skipped = append(skipped, gdsfEntry{idx: e.idx, seq: e.seq, pri: bp.pri(f)})
	}
	return 0, ErrNoFrames
}

// awaited reports whether f holds a page prefetched so recently, fewer
// evictions ago than the quarter pool one window may take, that its scan
// may not have reached it yet. GDSF ranks it below the pages the scan has
// read, so a window topped up ahead of the cursor would evict it first.
func (bp *Pool) awaited(f *frame) bool {
	return f.prefetched && bp.evictEpoch-f.lastEpoch < uint64(len(bp.frames)/4)
}

// extPutThrottled reports whether a clean eviction would block on the
// extension-put queue right now (evict acquires a slot synchronously
// when TryAcquire fails).
func (bp *Pool) extPutThrottled() bool {
	return bp.ext != nil && !bp.ext.disabled && bp.extPutSlots.Available() == 0
}

// extDegraded reports whether the live extension file is in a degraded
// window (a replica lost or under repair) — reads still work but may
// stall in retry or failover, which speculative prefetch must not risk.
func (bp *Pool) extDegraded() bool {
	if bp.ext == nil || bp.ext.disabled {
		return false
	}
	d, ok := bp.ext.file.(interface{ Degraded() bool })
	return ok && d.Degraded()
}
