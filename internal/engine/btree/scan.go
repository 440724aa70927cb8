package btree

import (
	"bytes"
	"errors"

	"remotedb/internal/engine/buffer"
	"remotedb/internal/engine/page"
	"remotedb/internal/sim"
)

// Pair is one (key, value) entry surfaced by a scan.
type Pair struct {
	Key, Val []byte
}

// Iterator walks leaf pages in key order for a caller that may block
// between entries (Scan/Next; exec's TableScan is one). A pin must not
// outlive a yield, so the iterator copies each leaf once into an image it
// owns — the frame is unpinned as soon as the copy is made — and hands
// out Pairs that alias that image: a Pair returned by Next is valid only
// until the next call to Next, and a caller that keeps one must copy it.
// That is the one reason the image exists: ScanRange and VisitRange,
// whose callers do not yield per entry, read each leaf in place (walk).
// Concurrent splits are tolerated (entries may be revisited across page
// boundaries only if they were moved right, which the monotone key filter
// suppresses).
type Iterator struct {
	t      *Tree
	pg     *page.Page // Scan's own copy of the current leaf; nil for walk
	ents   []Pair     // its live entries >= the lower bound, in key order, aliasing pg
	idx    int
	nextPg uint64
	leaves int    // leaf pages visited so far
	raNext uint64 // next page at which to issue a readahead window

	// last is the last key returned, for duplicate suppression. It aliases
	// the image until the next leaf overwrites it; lastBuf keeps it then.
	last    []byte
	hasLast bool
	lastBuf []byte

	acc []Pair // ScanRange's result under construction
}

// Scan returns an iterator positioned at the first key >= from (nil = min).
// It comes from the tree's idle iterators when one is free; Close gives it
// back.
func (t *Tree) Scan(p *sim.Proc, from []byte) (*Iterator, error) {
	h, err := t.descendToLeaf(p, from)
	if err != nil {
		return nil, err
	}
	it := t.getIterator()
	if it.pg == nil {
		it.pg = page.Wrap(make([]byte, page.Size))
	}
	it.leaves, it.raNext, it.last, it.hasLast = 0, 0, nil, false
	it.loadPage(h, from)
	return it, nil
}

// Close hands a Scan iterator back to its tree, page image and all, for
// the next scan to reuse. Neither the iterator nor a Pair it returned may
// be used after Close.
func (it *Iterator) Close() {
	it.t.iters = append(it.t.iters, it)
}

// loadPage copies the pinned leaf into the iterator's image, releases the
// frame, and indexes the image's live entries >= lower in key order.
func (it *Iterator) loadPage(h *buffer.Handle, lower []byte) {
	copy(it.pg.Bytes(), h.Page().Bytes())
	h.Release()
	pg := it.pg
	it.ents, it.idx = it.ents[:0], 0
	i := 1
	if lower != nil {
		i = lowerBound(pg, lower)
	}
	for ; i < pg.NumSlots(); i++ {
		if rec, live := pg.Slot(i); live {
			k, v := decodeLeaf(rec)
			it.ents = append(it.ents, Pair{Key: k, Val: v})
		}
	}
	it.nextPg = pg.Next()
}

// Next returns the next entry in key order; ok=false at the end. The
// returned Pair aliases the iterator's page image and is valid only
// until the next call to Next.
func (it *Iterator) Next(p *sim.Proc) (Pair, bool, error) {
	for {
		if it.idx < len(it.ents) {
			pair := it.ents[it.idx]
			it.idx++
			// Suppress duplicates from a page revisit after a split.
			if it.hasLast && bytes.Compare(pair.Key, it.last) <= 0 {
				continue
			}
			it.last, it.hasLast = pair.Key, true
			return pair, true, nil
		}
		if it.nextPg == 0 {
			return Pair{}, false, nil
		}
		h, err := it.nextLeaf(p)
		if err != nil {
			return Pair{}, false, err
		}
		// The next leaf overwrites the image the last key lives in.
		it.lastBuf = append(it.lastBuf[:0], it.last...)
		it.last = it.lastBuf
		it.loadPage(h, nil)
	}
}

// nextLeaf pins leaf it.nextPg, first topping up the readahead window.
func (it *Iterator) nextLeaf(p *sim.Proc) (*buffer.Handle, error) {
	// Bulk-loaded leaves are consecutively numbered, so prefetching
	// the window after the cursor turns the page-at-a-time walk into
	// batched faults; pages outside the chain cost one wasted frame
	// at worst. The window stays in flight ahead of the cursor: once
	// at most half of it is left ahead, the rest is topped up, so the
	// next pages are read while the scan works through these.
	// Readahead engages only once the iterator has crossed a couple
	// of leaves — a short PK-range probe reading one or two pages
	// must not pay for a speculative window it will never use — and
	// then slow-starts: the window is capped at the number of leaves
	// already visited, so a scan earns its prefetch depth by proving
	// it keeps going (a 4-leaf range query's first window is 2 pages,
	// a long scan ramps to the full window within a few leaves). The
	// offered window itself is adaptive: the pool ramps and shrinks
	// ReadaheadPages from the observed prefetch hit/waste ratio, so
	// workloads whose scans keep stopping short get a shallower
	// ceiling than this iterator's own slow-start would pick.
	if ra := it.t.bp.ReadaheadPages(); ra > 0 && it.leaves >= 2 {
		win := uint64(min(it.leaves, ra))
		if it.raNext <= it.nextPg+win/2 {
			start := max(it.nextPg, it.raNext)
			it.t.bp.ReadAheadWindow(p, start, int(it.nextPg+win-start))
			it.raNext = it.nextPg + win
		}
	}
	it.leaves++
	return it.t.bp.Get(p, it.nextPg)
}

// walk calls fn on every live entry with from <= key < to (nil bounds are
// open), in key order, reading each leaf in place: fn's Pair aliases the
// pinned frame, and leafDone, if not nil, runs after a leaf's entries
// under the same pin. Neither may yield. walk reads the leaves Next would,
// in the same order, with the same readahead, releasing each before
// pinning the next; it stops at fn's first error, after a leaf holding a
// live key >= to, or at the end of the chain. Each leaf's entries are
// found by binary search: >= from on the first leaf, > the last key
// visited on later ones (the split-revisit filter Next applies per entry).
func (it *Iterator) walk(p *sim.Proc, from, to []byte, fn func(Pair) error, leafDone func()) error {
	h, err := it.t.descendToLeaf(p, from)
	if err != nil {
		return err
	}
	it.leaves, it.raNext = 0, 0
	lower, after := from, false
	for {
		pg := h.Page()
		i, n, last := 1, pg.NumSlots(), 0
		if after {
			i = upperBound(pg, lower)
		} else if lower != nil {
			i = lowerBound(pg, lower)
		}
		end := n
		if to != nil {
			end = max(i, lowerBound(pg, to))
		}
		for ; i < end && err == nil; i++ {
			if rec, live := pg.Slot(i); live {
				k, v := decodeLeaf(rec)
				err, last = fn(Pair{Key: k, Val: v}), i
			}
		}
		// A live key >= to ends the scan; dead ones there do not.
		stop := err != nil
		for ; !stop && i < n; i++ {
			_, stop = pg.Slot(i)
		}
		if leafDone != nil {
			leafDone()
		}
		if last > 0 {
			rec, _ := pg.Slot(last)
			k, _ := decodeLeaf(rec)
			it.lastBuf = append(it.lastBuf[:0], k...)
			lower, after = it.lastBuf, true
		} else if !after {
			lower = nil // Next filters a later leaf only by a returned key
		}
		it.nextPg = pg.Next()
		h.Release()
		if stop || it.nextPg == 0 {
			return err
		}
		if h, err = it.nextLeaf(p); err != nil {
			return err
		}
	}
}

// errLimit ends ScanRange's walk once it holds limit entries.
var errLimit = errors.New("btree: scan limit reached")

// ScanRange collects up to limit entries with from <= key < to
// (nil bounds are open; limit <= 0 means unlimited), reading each leaf in
// place. The returned pairs are the caller's: before a leaf's frame is
// released their bytes are copied into one exactly-sized arena per leaf,
// not kept in the tree's pages or the iterator.
func (t *Tree) ScanRange(p *sim.Proc, from, to []byte, limit int) ([]Pair, error) {
	it := t.getIterator()
	acc, owned := it.acc[:0], 0 // acc[owned:] alias the pinned leaf
	err := it.walk(p, from, to, func(pr Pair) error {
		if acc = append(acc, pr); limit > 0 && len(acc) >= limit {
			return errLimit
		}
		return nil
	}, func() {
		ownPairs(acc[owned:])
		owned = len(acc)
	})
	if err == errLimit {
		err = nil
	}
	var out []Pair
	if len(acc) > 0 {
		out = make([]Pair, len(acc))
		copy(out, acc)
	}
	// The recycled iterator must not pin the caller's arenas, nor keep the
	// scratch of a whole-table scan for the life of the tree.
	clear(acc)
	if it.acc = acc; cap(acc) > maxKeptPairs {
		it.acc = nil
	}
	t.iters = append(t.iters, it)
	return out, err
}

// VisitRange calls fn on every entry with from <= key < to (nil bounds
// are open), in key order, and stops at fn's first error. It does the
// same page reads as ScanRange over the range but copies nothing: fn
// runs while the leaf is pinned, and the Pair handed to it aliases the
// buffer frame and is valid only for that call. fn must not block or
// yield (the pin would outlive it) and must not touch the tree.
func (t *Tree) VisitRange(p *sim.Proc, from, to []byte, fn func(Pair) error) error {
	it := t.getIterator()
	err := it.walk(p, from, to, fn, nil)
	t.iters = append(t.iters, it)
	return err
}

// getIterator takes an idle iterator, or makes one. One iterator per scan
// in flight: the free list never outgrows the number of scans that were
// open at once (a Scan iterator never closed is simply not reused).
func (t *Tree) getIterator() *Iterator {
	if n := len(t.iters); n > 0 {
		var it *Iterator
		it, t.iters = t.iters[n-1], t.iters[:n-1]
		return it
	}
	return &Iterator{t: t}
}

// maxKeptPairs bounds the result scratch a recycled iterator keeps.
const maxKeptPairs = 4096

// ownPairs moves the bytes of pairs into one arena sized exactly for them.
func ownPairs(pairs []Pair) {
	size := 0
	for _, pr := range pairs {
		size += len(pr.Key) + len(pr.Val)
	}
	if size == 0 {
		return
	}
	arena := make([]byte, size)
	for i, pr := range pairs {
		// Capacity-limited, so an append by the caller cannot reach a neighbour.
		k := arena[:len(pr.Key):len(pr.Key)]
		copy(k, pr.Key)
		arena = arena[len(pr.Key):]
		v := arena[:len(pr.Val):len(pr.Val)]
		copy(v, pr.Val)
		arena = arena[len(pr.Val):]
		pairs[i] = Pair{Key: k, Val: v}
	}
}

// SplitPoints returns up to n-1 ascending separator keys that cut the key
// space into roughly equal ranges, from the highest level with at least
// n-1 separators (the leaves' parents at the lowest). It copies only the
// keys it returns, into one arena: the root is counted and sampled under
// one pin, a lower level is read to count and again to copy. A small tree
// yields fewer.
func (t *Tree) SplitPoints(p *sim.Proc, n int) ([][]byte, error) {
	if n < 2 || t.height < 2 {
		return nil, nil
	}
	out, total, seen := make([][]byte, 0, n-1), 0, 0
	var arena []byte // a key's slice stays valid as it grows: no byte is rewritten
	count := func([]byte) { total++ }
	pick := func(k []byte) { // separators i*total/m, i in 1..m-1: all of them when total < n
		if m := min(n, total+1); len(out) < m-1 && seen == (len(out)+1)*total/m {
			arena = append(arena, k...)
			out = append(out, arena[len(arena)-len(k):len(arena):len(arena)])
		}
		seen++
	}
	h, err := t.bp.Get(p, t.root)
	if err != nil {
		return nil, err
	}
	first := nodeSeps(h.Page(), count)
	done := total >= n-1 || t.height == 2
	if done {
		nodeSeps(h.Page(), pick)
	}
	h.Release()
	for level := t.height - 1; !done; level-- {
		total = 0
		below, err := t.levelSeps(p, first, count)
		if done = total >= n-1 || level == 2; done && err == nil {
			_, err = t.levelSeps(p, first, pick)
		}
		if err != nil {
			return nil, err
		}
		first = below
	}
	return out, nil
}

// levelSeps calls nodeSeps on each node of the inner level whose leftmost
// node is first, and returns the leftmost node of the level below.
func (t *Tree) levelSeps(p *sim.Proc, first uint64, fn func([]byte)) (below uint64, err error) {
	for no := first; no != 0; {
		h, err := t.bp.Get(p, no)
		if err != nil {
			return 0, err
		}
		if child := nodeSeps(h.Page(), fn); below == 0 {
			below = child
		}
		no = h.Page().Next()
		h.Release()
	}
	return below, nil
}

// nodeSeps calls fn on a pinned inner node's separators in key order —
// its keyed entries, then its high key (the boundary with its right
// sibling) — and returns its -inf entry's child. fn's key aliases pg.
func nodeSeps(pg *page.Page, fn func([]byte)) (leftmost uint64) {
	for i := 1; i < pg.NumSlots(); i++ {
		if rec, err := pg.Get(i); err == nil {
			if k, child := decodeInner(rec); len(k) == 0 {
				leftmost = child
			} else {
				fn(k)
			}
		}
	}
	if hk := highKey(pg); len(hk) > 0 {
		fn(hk)
	}
	return leftmost
}

// BulkLoad builds a tree bottom-up from key-sorted pairs, filling leaves
// to fillFactor (0 < ff <= 1). It must be called on a fresh (empty) tree
// and is the fast path for the workload generators' initial loads.
func (t *Tree) BulkLoad(p *sim.Proc, pairs []Pair, fillFactor float64) error {
	if fillFactor <= 0 || fillFactor > 1 {
		fillFactor = 0.9
	}
	if len(pairs) == 0 {
		return nil
	}
	for i := 1; i < len(pairs); i++ {
		if bytes.Compare(pairs[i-1].Key, pairs[i].Key) >= 0 {
			return ErrDuplicate
		}
	}
	budget := int(float64(page.Size-page.HeaderSize-64) * fillFactor)

	// Build the leaf level.
	var level []nodeRef
	i := 0
	for i < len(pairs) {
		h, no, err := t.bp.Allocate(p, page.TypeBTreeLeaf)
		if err != nil {
			return err
		}
		initNode(h.Page(), page.TypeBTreeLeaf, nil)
		first := pairs[i].Key
		used := 0
		for i < len(pairs) {
			rec := t.leafRec(pairs[i].Key, pairs[i].Val)
			if len(rec) > maxEntry {
				h.Release()
				return ErrTooBig
			}
			if used+len(rec)+8 > budget {
				break
			}
			if _, err := h.Page().Insert(rec); err != nil {
				break
			}
			used += len(rec) + 8
			i++
		}
		h.MarkDirty(0)
		h.Release()
		level = append(level, nodeRef{firstKey: first, pageNo: no})
	}
	// Chain leaves and set high keys.
	if err := t.linkLevel(p, level); err != nil {
		return err
	}

	// Build inner levels until one node remains.
	height := 1
	for len(level) > 1 {
		var upper []nodeRef
		j := 0
		for j < len(level) {
			h, no, err := t.bp.Allocate(p, page.TypeBTreeInner)
			if err != nil {
				return err
			}
			initNode(h.Page(), page.TypeBTreeInner, nil)
			first := level[j].firstKey
			used := 0
			count := 0
			for j < len(level) {
				var key []byte
				if count > 0 {
					key = level[j].firstKey
				}
				rec := encodeInner(key, level[j].pageNo)
				if used+len(rec)+8 > budget && count > 1 {
					break
				}
				if _, err := h.Page().Insert(rec); err != nil {
					break
				}
				used += len(rec) + 8
				count++
				j++
			}
			h.MarkDirty(0)
			h.Release()
			upper = append(upper, nodeRef{firstKey: first, pageNo: no})
		}
		if err := t.linkLevel(p, upper); err != nil {
			return err
		}
		level = upper
		height++
	}
	t.root = level[0].pageNo
	t.height = height
	t.Entries = int64(len(pairs))
	return nil
}

// nodeRef names one node of a level being bulk-built.
type nodeRef struct {
	firstKey []byte
	pageNo   uint64
}

// linkLevel chains siblings and assigns each node's high key from its
// right neighbour's first key.
func (t *Tree) linkLevel(p *sim.Proc, level []nodeRef) error {
	for i, ref := range level {
		h, err := t.bp.Get(p, ref.pageNo)
		if err != nil {
			return err
		}
		if i+1 < len(level) {
			setHighKey(h.Page(), level[i+1].firstKey)
			h.Page().SetNext(level[i+1].pageNo)
		}
		h.MarkDirty(0)
		h.Release()
	}
	return nil
}
