// GDSF (Greedy-Dual-Size-Frequency) eviction. Each resident frame has a
// priority L + freq × missCost, where missCost is the calibrated latency
// of the tier the page would actually fall to on re-fetch — the healthy
// extension (remote memory or SSD) for clean pages, the data file
// otherwise, plus the write-back a dirty victim must pay first. L is the
// classic Greedy-Dual inflation value: it rises to the priority of each
// evicted frame, so long-resident pages age out unless hits keep lifting
// them. So when the extension tier is healthy, pages it can re-serve
// cheaply are sacrificed first, and frequently-hit pages whose only
// refuge is the disk hang on longest.
//
// The implementation is a lazy min-heap. The hit path is one counter
// increment (no heap movement — the concern that motivates epoch-based
// designs like vmcache's); priorities are recomputed only when an entry
// is popped. Each install pushes one entry stamped with the frame's seq;
// a popped entry whose seq or priority is out of date is discarded or
// re-queued at the fresh value, so at most one entry per frame is ever
// live.
package buffer

import (
	"time"

	"remotedb/internal/sim"
)

// gdsfEntry is one heap element: a frame index, the frame's seq at push
// time (stale entries are discarded), and the priority it was pushed at.
type gdsfEntry struct {
	idx int
	seq uint64
	pri float64
}

func (bp *Pool) heapPush(e gdsfEntry) {
	bp.gheap = append(bp.gheap, e)
	i := len(bp.gheap) - 1
	for i > 0 {
		parent := (i - 1) / 2
		if bp.gheap[parent].pri <= bp.gheap[i].pri {
			break
		}
		bp.gheap[parent], bp.gheap[i] = bp.gheap[i], bp.gheap[parent]
		i = parent
	}
}

func (bp *Pool) heapPop() (gdsfEntry, bool) {
	if len(bp.gheap) == 0 {
		return gdsfEntry{}, false
	}
	top := bp.gheap[0]
	last := len(bp.gheap) - 1
	bp.gheap[0] = bp.gheap[last]
	bp.gheap = bp.gheap[:last]
	i := 0
	for {
		l, r := 2*i+1, 2*i+2
		small := i
		if l < len(bp.gheap) && bp.gheap[l].pri < bp.gheap[small].pri {
			small = l
		}
		if r < len(bp.gheap) && bp.gheap[r].pri < bp.gheap[small].pri {
			small = r
		}
		if small == i {
			break
		}
		bp.gheap[i], bp.gheap[small] = bp.gheap[small], bp.gheap[i]
		i = small
	}
	return top, true
}

// missCost is the latency a miss on this frame's page would pay: the
// tier the page falls to (extension when healthy, else the data file),
// plus the synchronous write-back a dirty victim costs on its way out.
func (bp *Pool) missCost(f *frame) float64 {
	var c time.Duration
	if bp.ExtensionHealthy() {
		c = bp.costExt
	} else {
		c = bp.costDisk
	}
	if f.dirty {
		c += bp.costDisk
	}
	return float64(c)
}

// pri is the frame's current GDSF priority.
func (bp *Pool) pri(f *frame) float64 {
	return f.baseL + float64(f.freq)*bp.missCost(f)
}

// noteInstall registers a freshly-installed frame with the policy: reset
// its frequency, base it at the current inflation value, and push a heap
// entry under a new seq (orphaning any stale entry from a prior life).
func (bp *Pool) noteInstall(idx int) {
	f := &bp.frames[idx]
	f.freq = 1
	f.baseL = bp.gL
	f.lastEpoch = bp.evictEpoch
	f.seq++
	bp.heapPush(gdsfEntry{idx: idx, seq: f.seq, pri: bp.pri(f)})
}

// gdsfFreqCap saturates the frequency term. Unbounded counts let a page
// that was hot in a bygone phase (bulk load, a finished scan) hold a
// priority the inflation value takes arbitrarily long to catch, so the
// pool fills with stale "hot" pages while the live working set evicts
// itself. Capped, any unreferenced frame ages out within about
// gdsfFreqCap evictions' worth of inflation.
const gdsfFreqCap = 32

// noteHit applies the GDSF access rule H = L + freq×missCost at hit
// time: re-anchor the frame at the current inflation value and bump its
// saturating frequency. Correlated references — repeated hits with no
// eviction in between, the signature of a bulk load filling one tail
// page — count as a single reference, so write-once append traffic
// cannot masquerade as a hot working set (the LRU-K correlated
// reference rule). No heap movement happens here (the hit path stays
// O(1)); the pop path re-queues entries whose current priority outgrew
// the value they were pushed at.
func (bp *Pool) noteHit(idx int) {
	f := &bp.frames[idx]
	if f.lastEpoch != bp.evictEpoch && f.freq < gdsfFreqCap {
		f.freq++
	}
	f.lastEpoch = bp.evictEpoch
	f.baseL = bp.gL
}

// releaseFrame returns a frame that was handed out by victim but never
// installed (a failed fault, a prefetch that lost a race) to the free
// list.
func (bp *Pool) releaseFrame(idx int) {
	bp.free = append(bp.free, idx)
}

// victim finds a free frame: the free list first, then one bounded
// sweep over the heap per attempt. Sweeps that come up empty wait for a
// pin release and retry; it fails only if every frame stays pinned.
func (bp *Pool) victim(p *sim.Proc) (int, error) {
	for attempt := 0; ; attempt++ {
		for len(bp.free) > 0 {
			idx := bp.free[len(bp.free)-1]
			bp.free = bp.free[:len(bp.free)-1]
			if !bp.frames[idx].valid {
				return idx, nil
			}
		}
		idx, ok, err := bp.gdsfSweep(p)
		if err != nil {
			return 0, err
		}
		if ok {
			return idx, nil
		}
		if attempt >= 3 {
			return 0, ErrNoFrames
		}
		// Every candidate pinned or busy: wait for a release.
		bp.avail.Wait(p)
	}
}

// gdsfSweep pops candidates in priority order until one eviction
// succeeds. Pinned entries — and entries whose eviction came back
// re-pinned or re-dirtied — are set aside and re-queued only when the
// sweep ends: re-pushing an un-evictable minimum immediately would hand
// it straight back to the next pop, and a handful of such entries would
// spin the entire pop budget away while hundreds of evictable frames
// sit behind them (exactly what happens when the pool turns almost all
// dirty under an update-heavy storm).
func (bp *Pool) gdsfSweep(p *sim.Proc) (idx int, ok bool, err error) {
	var skipped []gdsfEntry
	defer func() {
		for _, e := range skipped {
			bp.heapPush(e)
		}
	}()
	budget := 2 * len(bp.frames)
	for pops := 0; pops < budget; pops++ {
		e, popped := bp.heapPop()
		if !popped {
			return 0, false, nil
		}
		f := &bp.frames[e.idx]
		if !f.valid || f.seq != e.seq {
			continue // stale entry from a prior install
		}
		cur := bp.pri(f)
		if cur > e.pri {
			// Hits (or a dirty transition) raised the priority since
			// the entry was pushed: re-queue at the fresh value.
			bp.heapPush(gdsfEntry{idx: e.idx, seq: e.seq, pri: cur})
			continue
		}
		if f.pins > 0 {
			skipped = append(skipped, gdsfEntry{idx: e.idx, seq: e.seq, pri: cur})
			continue
		}
		evicted, eerr := bp.evict(p, e.idx)
		if eerr != nil {
			skipped = append(skipped, gdsfEntry{idx: e.idx, seq: e.seq, pri: cur})
			return 0, false, eerr
		}
		if evicted {
			// Lazy re-ranking means another entry's true priority may
			// sit below this one's; never let the inflation value move
			// backwards.
			if cur > bp.gL {
				bp.gL = cur
			}
			return e.idx, true, nil
		}
		// Re-pinned or re-dirtied while the eviction slept in I/O.
		skipped = append(skipped, gdsfEntry{idx: e.idx, seq: e.seq, pri: bp.pri(f)})
	}
	return 0, false, nil
}
