package btree

import (
	"bytes"
	"math/rand"
	"testing"

	"remotedb/internal/engine/page"
	"remotedb/internal/sim"
)

// linearFindLeafSlot and linearChildFor are the reference searches: they
// decode every slot and rely on no order.
func linearFindLeafSlot(pg *page.Page, key []byte) int {
	for i := 1; i < pg.NumSlots(); i++ {
		rec, err := pg.Get(i)
		if err != nil {
			continue // dead slot
		}
		if k, _ := decodeLeaf(rec); bytes.Equal(k, key) {
			return i
		}
	}
	return -1
}

func linearChildFor(pg *page.Page, key []byte) uint64 {
	var best []byte
	var child uint64
	found := false
	for i := 1; i < pg.NumSlots(); i++ {
		rec, err := pg.Get(i)
		if err != nil {
			continue
		}
		k, c := decodeInner(rec)
		if bytes.Compare(k, key) <= 0 && (!found || bytes.Compare(k, best) >= 0) {
			best, child, found = k, c, true
		}
	}
	if !found {
		panic("reference: no covering child")
	}
	return child
}

// sortedSlots reports whether a node's entry keys, dead slots included,
// are non-decreasing in slot order.
func sortedSlots(pg *page.Page) bool {
	for i := 2; i < pg.NumSlots(); i++ {
		a, _ := pg.Slot(i - 1)
		b, _ := pg.Slot(i)
		ka, _ := decodeLeaf(a)
		kb, _ := decodeLeaf(b)
		if bytes.Compare(ka, kb) > 0 {
			return false
		}
	}
	return true
}

// checkSortedNodes walks every node of every level, left to right, and
// fails on one whose entry slots are out of key order.
func checkSortedNodes(t *testing.T, p *sim.Proc, tr *Tree) {
	t.Helper()
	first, nodes := tr.Root(), 0
	for level := tr.Height(); level >= 1; level-- {
		var down uint64
		for no := first; no != 0; nodes++ {
			h, err := tr.Pool().Get(p, no)
			if err != nil {
				t.Fatal(err)
			}
			pg := h.Page()
			if !sortedSlots(pg) {
				t.Errorf("level %d node %d: entry slots out of key order", level, no)
			}
			if level > 1 && no == first {
				rec, _ := pg.Get(1) // the -inf entry: the level below starts there
				_, down = decodeInner(rec)
			}
			no = pg.Next()
			h.Release()
		}
		first = down
	}
	if nodes < tr.Height() {
		t.Errorf("walked %d nodes of a tree of height %d", nodes, tr.Height())
	}
}

// TestSearchMatchesLinearReference builds leaves and inner nodes the way
// put and postSeparator do (each entry inserted at its key's upper
// bound, in random order) and checks findLeafSlot and childFor against
// the linear reference for every key, its neighbours and random probes.
func TestSearchMatchesLinearReference(t *testing.T) {
	cases := []struct {
		name      string
		n         int // distinct keys
		deadEvery int // delete every deadEvery-th key inserted (0: none)
		reinsert  bool
	}{
		{"empty", 0, 0, false},
		{"one", 1, 0, false},
		{"full", 300, 0, false},
		{"dead-slots", 200, 3, false},
		{"all-dead", 60, 1, false},
		// Update's delete-then-reinsert: a dead slot, then a live one with the same key.
		{"dead-then-live", 150, 2, true},
	}
	rng := rand.New(rand.NewSource(11))
	var enc Tree // encodes the hand-built leaf's records
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			ids := rng.Perm(4 * (c.n + 1))[:c.n]
			leaf := page.Wrap(make([]byte, page.Size))
			initNode(leaf, page.TypeBTreeLeaf, key(1<<20))
			inner := page.Wrap(make([]byte, page.Size))
			initNode(inner, page.TypeBTreeInner, nil)
			if err := inner.InsertAt(upperBound(inner, nil), encodeInner(nil, 1)); err != nil {
				t.Fatal(err)
			}
			for i, id := range ids {
				k := key(id)
				if err := leaf.InsertAt(upperBound(leaf, k), enc.leafRec(k, val(id))); err != nil {
					t.Fatal(err)
				}
				if err := inner.InsertAt(upperBound(inner, k), encodeInner(k, uint64(id+2))); err != nil {
					t.Fatal(err)
				}
				if c.deadEvery == 0 || i%c.deadEvery != 0 {
					continue
				}
				if err := leaf.Delete(findLeafSlot(leaf, k)); err != nil {
					t.Fatal(err)
				}
				if c.reinsert {
					if err := leaf.InsertAt(upperBound(leaf, k), enc.leafRec(k, []byte("again"))); err != nil {
						t.Fatal(err)
					}
				}
			}
			if !sortedSlots(leaf) || !sortedSlots(inner) {
				t.Fatal("entry slots out of key order")
			}
			if c.reinsert && leaf.Live() == leaf.NumSlots() {
				t.Fatal("no dead slot before a live one with its key")
			}
			var probes [][]byte
			for _, id := range ids {
				probes = append(probes, key(id-1), key(id), key(id+1))
			}
			for i := 0; i < 100; i++ {
				probes = append(probes, key(rng.Intn(4*(c.n+2))-1))
			}
			for _, pr := range probes {
				if got, want := findLeafSlot(leaf, pr), linearFindLeafSlot(leaf, pr); got != want {
					t.Fatalf("findLeafSlot(%x) = %d, reference %d", pr, got, want)
				}
				if got, want := childFor(inner, pr), linearChildFor(inner, pr); got != want {
					t.Fatalf("childFor(%x) = %d, reference %d", pr, got, want)
				}
			}
		})
	}
}
