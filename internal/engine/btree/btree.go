// Package btree implements the engine's B+tree over buffer-pool pages:
// clustered indexes (rows in the leaves) and secondary indexes (key →
// primary key) both use it. The design is a B-link tree: every node
// carries a high key and a right-sibling link, so readers never latch —
// if a concurrent split moved their key range, they follow the link
// right. Structure modifications serialize on a per-tree mutex; plain
// inserts and updates only pin the leaf they touch.
//
// Every node keeps its entry slots in key order: an insert goes to the
// upper bound of its key (page.InsertAt), so descents, point lookups and
// inserts binary-search the slot directory, and splits and range scans
// read entries in slot order without sorting. A deleted entry stays in
// its place as a dead slot whose record the search still reads, until
// compaction drops it.
package btree

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"

	"remotedb/internal/engine/buffer"
	"remotedb/internal/engine/page"
	"remotedb/internal/sim"
)

// Errors returned by tree operations.
var (
	ErrDuplicate = errors.New("btree: duplicate key")
	ErrNotFound  = errors.New("btree: key not found")
	ErrTooBig    = errors.New("btree: entry larger than half a page")
)

// maxEntry bounds one (key,value) record so two always fit in a page.
const maxEntry = (page.Size - page.HeaderSize - 64) / 2

// Tree is a B-link tree rooted in a buffer pool.
type Tree struct {
	Name string

	bp     *buffer.Pool
	root   uint64
	height int
	smo    *sim.Resource // serializes structure modifications
	iters  []*Iterator   // idle iterators: closed Scans', finished range walks'
	rec    []byte        // leaf-record scratch, filled after the last yield before the page copies it

	Entries int64 // live entry count (maintained by Insert/Delete)
}

// New creates an empty tree (a single empty leaf).
func New(p *sim.Proc, bp *buffer.Pool, name string) (*Tree, error) {
	h, no, err := bp.Allocate(p, page.TypeBTreeLeaf)
	if err != nil {
		return nil, err
	}
	initNode(h.Page(), page.TypeBTreeLeaf, nil)
	h.MarkDirty(0)
	h.Release()
	return &Tree{
		Name:   name,
		bp:     bp,
		root:   no,
		height: 1,
		smo:    sim.NewResource(bp.Server().K, name+"/smo", 1),
	}, nil
}

// Pool returns the tree's buffer pool.
func (t *Tree) Pool() *buffer.Pool { return t.bp }

// Root returns the current root page number.
func (t *Tree) Root() uint64 { return t.root }

// Height returns the number of levels.
func (t *Tree) Height() int { return t.height }

// --- node record encoding ------------------------------------------------
//
// Slot 0 of every node is the high key: empty = +inf. Slots >= 1 are
// entries. Leaf entry: [klen u16][key][value]. Inner entry:
// [klen u16][key][child u64]; the entry with the empty key is the
// leftmost child (-inf separator).

func initNode(pg *page.Page, t page.Type, highKey []byte) {
	pg.Init(pg.PageNo(), t)
	rec := make([]byte, 2+len(highKey))
	binary.LittleEndian.PutUint16(rec, uint16(len(highKey)))
	copy(rec[2:], highKey)
	if _, err := pg.Insert(rec); err != nil {
		panic("btree: cannot write high key: " + err.Error())
	}
}

func highKey(pg *page.Page) []byte {
	rec, err := pg.Get(0)
	if err != nil {
		panic("btree: node missing high key")
	}
	n := binary.LittleEndian.Uint16(rec)
	return rec[2 : 2+n]
}

func setHighKey(pg *page.Page, hk []byte) {
	rec := make([]byte, 2+len(hk))
	binary.LittleEndian.PutUint16(rec, uint16(len(hk)))
	copy(rec[2:], hk)
	if err := pg.Update(0, rec); err != nil {
		panic("btree: cannot update high key: " + err.Error())
	}
}

// covered reports whether key belongs to this node (key < highKey).
func covered(pg *page.Page, key []byte) bool {
	hk := highKey(pg)
	return len(hk) == 0 || bytes.Compare(key, hk) < 0
}

// leafRec encodes a leaf record into the tree's scratch. The record is
// valid until the caller next yields: another proc may encode over it.
func (t *Tree) leafRec(key, val []byte) []byte {
	t.rec = binary.LittleEndian.AppendUint16(t.rec[:0], uint16(len(key)))
	t.rec = append(append(t.rec, key...), val...)
	return t.rec
}

func decodeLeaf(rec []byte) (key, val []byte) {
	n := binary.LittleEndian.Uint16(rec)
	return rec[2 : 2+n], rec[2+n:]
}

func encodeInner(key []byte, child uint64) []byte {
	rec := make([]byte, 2+len(key)+8)
	binary.LittleEndian.PutUint16(rec, uint16(len(key)))
	copy(rec[2:], key)
	binary.LittleEndian.PutUint64(rec[2+len(key):], child)
	return rec
}

func decodeInner(rec []byte) (key []byte, child uint64) {
	n := binary.LittleEndian.Uint16(rec)
	return rec[2 : 2+n], binary.LittleEndian.Uint64(rec[2+int(n):])
}

// upperBound returns the first entry slot whose key is > key, or
// NumSlots; lowerBound the first whose key is >= key. Leaf and inner
// records both start [klen][key], and a dead slot's record keeps its key,
// so every entry slot takes part.
func upperBound(pg *page.Page, key []byte) int { return firstAbove(pg, key, 0) }
func lowerBound(pg *page.Page, key []byte) int { return firstAbove(pg, key, -1) }

// firstAbove returns the first entry slot whose key compares above c
// against key (bytes.Compare), or NumSlots.
func firstAbove(pg *page.Page, key []byte, c int) int {
	lo, hi := 1, pg.NumSlots()
	for lo < hi {
		mid := int(uint(lo+hi) >> 1)
		rec, _ := pg.Slot(mid)
		if k, _ := decodeLeaf(rec); bytes.Compare(k, key) <= c {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	return lo
}

// findLeafSlot returns key's live slot in a leaf, or -1. A live entry is
// the last slot with its key: it was inserted at the key's upper bound,
// after any dead copies an Update that could not grow in place left.
func findLeafSlot(pg *page.Page, key []byte) int {
	i := upperBound(pg, key) - 1
	if i < 1 {
		return -1
	}
	rec, live := pg.Slot(i)
	if k, _ := decodeLeaf(rec); live && bytes.Equal(k, key) {
		return i
	}
	return -1
}

// childFor picks the inner entry whose subtree covers key: the last one
// with separator <= key. Inner entries are never deleted.
func childFor(pg *page.Page, key []byte) uint64 {
	i := upperBound(pg, key) - 1
	rec, err := pg.Get(i)
	if i < 1 || err != nil {
		panic("btree: inner node has no covering child")
	}
	_, child := decodeInner(rec)
	return child
}

// descendToLeaf walks from the root to the leaf covering key, following
// right-links when a concurrent split moved the range. It returns a
// pinned leaf handle.
func (t *Tree) descendToLeaf(p *sim.Proc, key []byte) (*buffer.Handle, error) {
	pageNo := t.root
	for {
		h, err := t.bp.Get(p, pageNo)
		if err != nil {
			return nil, err
		}
		pg := h.Page()
		if !covered(pg, key) {
			next := pg.Next()
			h.Release()
			if next == 0 {
				return nil, fmt.Errorf("btree %s: fell off right edge", t.Name)
			}
			pageNo = next
			continue
		}
		if pg.PageType() == page.TypeBTreeLeaf {
			return h, nil
		}
		pageNo = childFor(pg, key)
		h.Release()
	}
}

// Search returns the value stored under key.
func (t *Tree) Search(p *sim.Proc, key []byte) ([]byte, error) {
	h, err := t.descendToLeaf(p, key)
	if err != nil {
		return nil, err
	}
	defer h.Release()
	slot := findLeafSlot(h.Page(), key)
	if slot < 0 {
		return nil, ErrNotFound
	}
	rec, _ := h.Page().Get(slot)
	_, val := decodeLeaf(rec)
	return append([]byte(nil), val...), nil
}

// Insert adds a new key; it fails on duplicates.
func (t *Tree) Insert(p *sim.Proc, key, val []byte) error {
	return t.put(p, key, val, false)
}

// Put inserts or replaces.
func (t *Tree) Put(p *sim.Proc, key, val []byte) error {
	return t.put(p, key, val, true)
}

// Update replaces the value of an existing key.
func (t *Tree) Update(p *sim.Proc, key, val []byte) error {
	h, err := t.descendToLeaf(p, key)
	if err != nil {
		return err
	}
	pg := h.Page()
	slot := findLeafSlot(pg, key)
	if slot < 0 {
		h.Release()
		return ErrNotFound
	}
	if err := pg.Update(slot, t.leafRec(key, val)); err == nil {
		h.MarkDirty(0)
		h.Release()
		return nil
	}
	// No room to grow in place: delete + reinsert (may split).
	pg.Delete(slot)
	t.Entries--
	h.MarkDirty(0)
	h.Release()
	return t.put(p, key, val, false)
}

func (t *Tree) put(p *sim.Proc, key, val []byte, upsert bool) error {
	if 2+len(key)+len(val) > maxEntry {
		return ErrTooBig
	}
	for {
		h, err := t.descendToLeaf(p, key)
		if err != nil {
			return err
		}
		pg := h.Page()
		rec := t.leafRec(key, val)
		if slot := findLeafSlot(pg, key); slot >= 0 {
			if !upsert {
				h.Release()
				return ErrDuplicate
			}
			if err := pg.Update(slot, rec); err == nil {
				h.MarkDirty(0)
				h.Release()
				return nil
			}
			pg.Delete(slot)
			t.Entries--
		}
		if pg.FreeSpace() >= len(rec)+8 {
			if err := pg.InsertAt(upperBound(pg, key), rec); err == nil {
				t.Entries++
				h.MarkDirty(0)
				h.Release()
				return nil
			}
		}
		// Try compaction (dead slots from deletes/updates).
		if pg.Live() < pg.NumSlots() {
			pg.Compact()
			h.MarkDirty(0)
			if pg.FreeSpace() >= len(rec)+8 {
				if err := pg.InsertAt(upperBound(pg, key), rec); err == nil {
					t.Entries++
					h.Release()
					return nil
				}
			}
		}
		leafNo := h.PageNo()
		h.Release()
		// Leaf is genuinely full: split under the SMO mutex and retry.
		if err := t.splitLeaf(p, leafNo, key); err != nil {
			return err
		}
	}
}

// splitLeaf splits the (possibly stale) leaf covering key. The SMO mutex
// serializes all splits.
func (t *Tree) splitLeaf(p *sim.Proc, hintPage uint64, key []byte) error {
	t.smo.Acquire(p, 1)
	defer t.smo.Release(1)

	// Re-locate the leaf: it may have been split already.
	h, err := t.descendToLeaf(p, key)
	if err != nil {
		return err
	}
	pg := h.Page()
	// The live records, copied whole into one buffer: the page is
	// rewritten below, and Allocate may yield.
	var recs [][]byte
	img := make([]byte, 0, page.Size)
	for i := 1; i < pg.NumSlots(); i++ {
		r, err := pg.Get(i)
		if err != nil {
			continue
		}
		img = append(img, r...)
		recs = append(recs, img[len(img)-len(r):])
	}
	if len(recs) < 2 {
		h.Release()
		return nil // nothing to split; caller retries insert
	}
	mid := len(recs) / 2
	sep, _ := decodeLeaf(recs[mid])
	oldHigh := append([]byte(nil), highKey(pg)...)
	oldNext := pg.Next()
	leafNo := h.PageNo()

	// Allocate the right sibling and move the upper half there.
	rh, rightNo, err := t.bp.Allocate(p, page.TypeBTreeLeaf)
	if err != nil {
		h.Release()
		return err
	}
	initNode(rh.Page(), page.TypeBTreeLeaf, oldHigh)
	rh.Page().SetNext(oldNext)
	for _, r := range recs[mid:] {
		if _, err := rh.Page().Insert(r); err != nil {
			panic("btree: right split page overflow: " + err.Error())
		}
	}
	rh.MarkDirty(0)
	rh.Release()

	// Rewrite the left node with the lower half.
	initNode(pg, page.TypeBTreeLeaf, sep)
	pg.SetNext(rightNo)
	for _, r := range recs[:mid] {
		if _, err := pg.Insert(r); err != nil {
			panic("btree: left split page overflow: " + err.Error())
		}
	}
	h.MarkDirty(0)
	h.Release()

	// Post the separator to the parent level.
	return t.postSeparator(p, leafNo, rightNo, sep, 1)
}

// postSeparator inserts (sep -> rightNo) into the parent of leftNo at the
// given level (leaf = level 1). A missing parent (leftNo was the root)
// grows the tree.
func (t *Tree) postSeparator(p *sim.Proc, leftNo, rightNo uint64, sep []byte, level int) error {
	if leftNo == t.root {
		// Root split: new root with two children.
		rh, rootNo, err := t.bp.Allocate(p, page.TypeBTreeInner)
		if err != nil {
			return err
		}
		initNode(rh.Page(), page.TypeBTreeInner, nil)
		rh.Page().Insert(encodeInner(nil, leftNo))
		rh.Page().Insert(encodeInner(sep, rightNo))
		rh.MarkDirty(0)
		rh.Release()
		t.root = rootNo
		t.height++
		return nil
	}
	// Find the parent of leftNo by descending to the node at level+1
	// covering sep, moving right as needed.
	pageNo := t.root
	depth := t.height
	for depth > level+1 {
		h, err := t.bp.Get(p, pageNo)
		if err != nil {
			return err
		}
		pg := h.Page()
		if !covered(pg, sep) {
			next := pg.Next()
			h.Release()
			pageNo = next
			continue
		}
		pageNo = childFor(pg, sep)
		h.Release()
		depth--
	}
	for {
		h, err := t.bp.Get(p, pageNo)
		if err != nil {
			return err
		}
		pg := h.Page()
		if !covered(pg, sep) {
			next := pg.Next()
			h.Release()
			if next == 0 {
				return fmt.Errorf("btree %s: separator fell off inner level", t.Name)
			}
			pageNo = next
			continue
		}
		rec := encodeInner(sep, rightNo)
		if pg.FreeSpace() >= len(rec)+8 {
			pg.InsertAt(upperBound(pg, sep), rec)
			h.MarkDirty(0)
			h.Release()
			return nil
		}
		// Inner node full: split it (we already hold the SMO mutex).
		if err := t.splitInner(p, h, level+1); err != nil {
			h.Release()
			return err
		}
		h.Release()
		// Retry posting from the same node (links updated).
	}
}

// splitInner splits a full inner node whose handle is pinned.
func (t *Tree) splitInner(p *sim.Proc, h *buffer.Handle, level int) error {
	pg := h.Page()
	type entry struct {
		k []byte
		c uint64
	}
	var entries []entry
	for i := 1; i < pg.NumSlots(); i++ {
		r, err := pg.Get(i)
		if err != nil {
			continue
		}
		k, c := decodeInner(r)
		entries = append(entries, entry{append([]byte(nil), k...), c})
	}
	mid := len(entries) / 2
	sep := entries[mid].k
	oldHigh := append([]byte(nil), highKey(pg)...)
	oldNext := pg.Next()
	leftNo := h.PageNo()

	rh, rightNo, err := t.bp.Allocate(p, page.TypeBTreeInner)
	if err != nil {
		return err
	}
	initNode(rh.Page(), page.TypeBTreeInner, oldHigh)
	rh.Page().SetNext(oldNext)
	// Right node's leftmost child: the separator entry's child becomes the
	// -inf entry of the right node.
	rh.Page().Insert(encodeInner(nil, entries[mid].c))
	for _, e := range entries[mid+1:] {
		rh.Page().Insert(encodeInner(e.k, e.c))
	}
	rh.MarkDirty(0)
	rh.Release()

	initNode(pg, page.TypeBTreeInner, sep)
	pg.SetNext(rightNo)
	for _, e := range entries[:mid] {
		pg.Insert(encodeInner(e.k, e.c))
	}
	h.MarkDirty(0)

	return t.postSeparator(p, leftNo, rightNo, sep, level)
}

// Delete removes a key (slot is marked dead; space reclaimed by later
// compaction; nodes are never merged).
func (t *Tree) Delete(p *sim.Proc, key []byte) error {
	h, err := t.descendToLeaf(p, key)
	if err != nil {
		return err
	}
	defer h.Release()
	slot := findLeafSlot(h.Page(), key)
	if slot < 0 {
		return ErrNotFound
	}
	h.Page().Delete(slot)
	h.MarkDirty(0)
	t.Entries--
	return nil
}
