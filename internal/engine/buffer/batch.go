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

	"remotedb/internal/engine/page"
	"remotedb/internal/sim"
	"remotedb/internal/vfs"
)

// writerFlushBatch is the lazy writer's vectored round: up to
// WriterBatch dirty unpinned frames are written per round, in
// scatter-gather sub-batches of at most a quarter of the pool — every
// frame in a sub-batch stays pinned until its write lands, and pinning
// more would starve foreground victims in small pools. Frames
// re-dirtied while the I/O slept stay dirty.
func (bp *Pool) writerFlushBatch(p *sim.Proc) {
	lim := bp.cfg.WriterBatch
	if q := len(bp.frames) / 4; q > 0 && lim > q {
		lim = q
	}
	type cand struct {
		idx int
		v0  uint64
		vec vfs.Vec
	}
	written := 0
	next := 0
	for written < bp.cfg.WriterBatch && next < len(bp.frames) {
		var cands []cand
		for ; next < len(bp.frames) && len(cands) < lim; next++ {
			f := &bp.frames[next]
			if !f.valid || !f.dirty || f.pins > 0 {
				continue
			}
			f.pins++
			f.pg.Seal()
			cands = append(cands, cand{
				idx: next,
				v0:  f.ver,
				vec: vfs.Vec{Off: int64(f.pageNo) * page.Size, Buf: f.buf},
			})
		}
		if len(cands) == 0 {
			return
		}
		// Elevator order: a device file merges contiguous runs only when
		// they are adjacent in the vector.
		slices.SortFunc(cands, func(a, b cand) int { return cmp.Compare(a.vec.Off, b.vec.Off) })
		vecs := make([]vfs.Vec, len(cands))
		for i, c := range cands {
			vecs[i] = c.vec
		}
		err := vfs.WriteVec(p, bp.data, vecs)
		for _, c := range cands {
			f := &bp.frames[c.idx]
			f.pins--
			if f.pins == 0 {
				bp.avail.Signal()
			}
			if err == nil && f.ver == c.v0 {
				f.dirty = false
				bp.Stats.WriterIO++
				bp.Stats.WriterBytes += page.Size
				written++
			}
		}
	}
}

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
// with one scatter-gather call, preserving the scalar put's semantics:
// superseded entries (a newer eviction of the same page re-stamped
// putVer) are dropped, and a mapping is installed only if its slot still
// belongs to the page and its stamp is still the latest — allocSlot may
// reclaim an earlier batch entry's slot when the extension is full, in
// which case the later element's bytes win (vector order) and only the
// surviving owner installs.
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
			e.slotPage[slot] = pu.pageNo
		}
		lives = append(lives, live{pu: pu, slot: slot})
		vecs = append(vecs, vfs.Vec{Off: int64(slot) * page.Size, Buf: pu.img})
	}
	if len(vecs) == 0 {
		return
	}
	if err := vfs.WriteVec(p, e.file, vecs); err != nil {
		for _, lv := range lives {
			delete(e.table, lv.pu.pageNo)
			if e.slotPage[lv.slot] == lv.pu.pageNo {
				e.slotPage[lv.slot] = 0
			}
		}
		bp.extFailed(err)
		return
	}
	for _, lv := range lives {
		if e.slotPage[lv.slot] != lv.pu.pageNo {
			continue // slot reclaimed by a later element of this batch
		}
		if e.putVer[lv.pu.pageNo] != lv.pu.ver {
			e.slotPage[lv.slot] = 0 // superseded while the write slept
			continue
		}
		e.table[lv.pu.pageNo] = lv.slot
		e.Puts++
		bp.Stats.ExtWrites++
		bp.Stats.ExtWriteBytes += page.Size
	}
}

// ReadaheadPages returns the scan readahead window in pages, or 0 when
// readahead is disabled (no batched I/O or a zero window). With
// AdaptiveReadahead this is the current feedback-adapted window, so
// scans that clamp to it automatically ramp and shrink with it.
func (bp *Pool) ReadaheadPages() int {
	if !bp.cfg.BatchedIO || bp.cfg.Readahead <= 0 {
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
// quarter of the pool, and returns the number of pages actually
// installed. Callers that ramp their window (slow-start scans) pass the
// ramped size as maxPages.
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

// ReadAhead batch-faults the given pages with one vectored read per
// source tier, installing each into a frame so subsequent Gets hit in
// RAM. Pages already resident, already faulting, or not yet allocated
// are skipped. With a healthy extension the prefetch reads the
// ext-cached pages in one grouped remote transfer (one charged round
// trip instead of one per page) and deliberately does NOT touch pages
// absent from the extension: in steady state the warm set lives in the
// extension, so an absent page is cold and a speculative fault would
// pay a random spindle seek for a page the scan may never visit.
// Without an extension the window is read from the data file in one
// elevator-merged vectored read. Prefetched pages are registered as
// in-flight faults so a concurrent Get piggybacks instead of issuing
// its own read; they count in Stats.ReadAheadPages, never DiskReads or
// ExtHits. Prefetching is best-effort: pool pressure stops it early.
func (bp *Pool) ReadAhead(p *sim.Proc, pageNos []uint64) int {
	type pending struct {
		no   uint64
		idx  int
		slot int // extension slot, -1 = data file
		wg   *sim.WaitGroup
	}
	var pend []pending
	installed := 0
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
		slot := -1
		queued := false
		if bp.extDegraded() {
			// A stripe of the extension file is down or under repair: a
			// vectored read could stall in retry/backoff behind the one
			// bad element while holding every pend frame pinned. Demand
			// faults handle degradation per page; prefetch sits it out.
			break
		}
		if bp.ExtensionHealthy() {
			if _, q := bp.extPending[no]; q {
				queued = true // flusher queue: serve the RAM image below
			} else {
				s, cached := bp.ext.table[no]
				if !cached {
					continue // cold page: leave it to the demand path
				}
				slot = s
			}
		}
		idx, err := bp.victimPrefetch(p)
		if err != nil {
			break // pool under pressure: prefetch what we could
		}
		// victim may have slept in eviction I/O; a concurrent Get could
		// have faulted this page in meanwhile.
		if _, ok := bp.table[no]; ok {
			bp.releaseFrame(idx)
			continue
		}
		if _, inflight := bp.faulting[no]; inflight {
			bp.releaseFrame(idx)
			continue
		}
		if queued {
			pu, ok := bp.extPending[no]
			if !ok {
				// Flushed while the victim search slept; the demand path
				// will serve it from the extension.
				bp.releaseFrame(idx)
				continue
			}
			f := &bp.frames[idx]
			f.pins = 0
			f.valid = true
			f.pageNo = no
			f.dirty = false
			f.ver++
			f.ref = true
			f.prefetched = true
			f.extCopy = true
			copy(f.buf, pu.img)
			bp.table[no] = idx
			bp.noteInstall(idx)
			bp.Stats.ReadAheadPages++
			installed++
			continue
		}
		f := &bp.frames[idx]
		f.pins = 1 // reserve across the batched read
		f.valid = true
		f.pageNo = no
		f.dirty = false
		f.ver++
		wg := sim.NewWaitGroup(bp.k)
		wg.Add(1)
		bp.faulting[no] = wg
		pend = append(pend, pending{no: no, idx: idx, slot: slot, wg: wg})
	}
	if len(pend) == 0 {
		return installed
	}
	var extVecs, diskVecs []vfs.Vec
	for _, pe := range pend {
		f := &bp.frames[pe.idx]
		if pe.slot >= 0 {
			extVecs = append(extVecs, vfs.Vec{Off: int64(pe.slot) * page.Size, Buf: f.buf})
		} else {
			diskVecs = append(diskVecs, vfs.Vec{Off: int64(pe.no) * page.Size, Buf: f.buf})
		}
	}
	var extErr, diskErr error
	if len(extVecs) > 0 {
		if extErr = vfs.ReadVec(p, bp.ext.file, extVecs); extErr != nil {
			bp.extFailed(extErr)
		}
	}
	if len(diskVecs) > 0 {
		diskErr = vfs.ReadVec(p, bp.data, diskVecs)
	}
	for _, pe := range pend {
		f := &bp.frames[pe.idx]
		err := diskErr
		stale := false
		if pe.slot >= 0 {
			err = extErr
			stale = bp.ext.stale(pe.slot, pe.no)
		}
		if _, raced := bp.table[pe.no]; err != nil || raced || stale {
			f.valid = false
			f.pins = 0
			bp.releaseFrame(pe.idx)
		} else {
			f.pins = 0
			f.ref = true
			f.prefetched = true
			f.extCopy = pe.slot >= 0
			bp.table[pe.no] = pe.idx
			bp.noteInstall(pe.idx)
			installed++
			bp.Stats.ReadAheadPages++
		}
		delete(bp.faulting, pe.no)
		pe.wg.Done()
		bp.avail.Signal()
	}
	return installed
}

// victimPrefetch finds a frame for speculative readahead without ever
// waiting for one. Prefetch is best-effort: it takes the free list or a
// clean, unpinned, low-priority victim, and gives up rather than sleep
// on a pin release, write back a dirty page, or stall on extension-put
// throttling — a speculative read must never steal capacity or block in
// the way of the demand faults it is supposed to be helping. (The
// blocking variants live in victimClock/victimGDSF.)
func (bp *Pool) victimPrefetch(p *sim.Proc) (int, error) {
	if bp.cfg.Policy == PolicyClock {
		return bp.victimPrefetchClock(p)
	}
	return bp.victimPrefetchGDSF(p)
}

// extPutThrottled reports whether a clean eviction would block on the
// extension-put queue right now (batched mode acquires a slot
// synchronously on the eviction path when TryAcquire fails).
func (bp *Pool) extPutThrottled() bool {
	return bp.cfg.BatchedIO && bp.ext != nil && !bp.ext.disabled &&
		bp.extPutSlots.Available() == 0
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

func (bp *Pool) victimPrefetchGDSF(p *sim.Proc) (int, error) {
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
	// Entries passed over (pinned or dirty) go back on the heap when the
	// search ends, not immediately — re-pushing the current minimum
	// would just pop it again next iteration.
	var skipped []gdsfEntry
	defer func() {
		for _, e := range skipped {
			bp.heapPush(e)
		}
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
		if f.pins > 0 || f.dirty {
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

func (bp *Pool) victimPrefetchClock(p *sim.Proc) (int, error) {
	if bp.extPutThrottled() {
		return 0, ErrNoFrames
	}
	for sweep := 0; sweep < 2*len(bp.frames); sweep++ {
		f := &bp.frames[bp.hand]
		idx := bp.hand
		bp.hand = (bp.hand + 1) % len(bp.frames)
		if !f.valid {
			return idx, nil
		}
		if f.pins > 0 || f.dirty {
			continue
		}
		if f.ref {
			f.ref = false
			continue
		}
		evicted, err := bp.evict(p, idx)
		if err != nil {
			return 0, err
		}
		if evicted {
			return idx, nil
		}
	}
	return 0, ErrNoFrames
}
