package btree

import (
	"bytes"
	"errors"
	"fmt"
	"testing"
	"time"

	"remotedb/internal/sim"
)

// loadTree bulk-loads n entries whose values are width bytes long.
func loadTree(t *testing.T, p *sim.Proc, tr *Tree, n, width int) {
	t.Helper()
	pairs := make([]Pair, n)
	for i := range pairs {
		pairs[i] = Pair{Key: key(i), Val: wideVal(i, width)}
	}
	if err := tr.BulkLoad(p, pairs, 0.9); err != nil {
		t.Fatal(err)
	}
}

func wideVal(i, width int) []byte {
	v := bytes.Repeat([]byte{'.'}, width)
	copy(v, fmt.Sprintf("value-%d", i))
	return v
}

// leavesOf counts the leaves a full scan visits.
func leavesOf(t *testing.T, p *sim.Proc, tr *Tree) int {
	t.Helper()
	it, err := tr.Scan(p, nil)
	if err != nil {
		t.Fatal(err)
	}
	for {
		if _, ok, err := it.Next(p); err != nil {
			t.Fatal(err)
		} else if !ok {
			return it.leaves + 1
		}
	}
}

// ScanRange's pairs are the caller's: later scans through the recycled
// iterator, evictions of the leaves they came from, and updates of the
// same rows must not reach them.
func TestScanRangePairsAreCallerOwned(t *testing.T) {
	k := newKernel(t, 1)
	mk := rig(k, 8) // far smaller than the tree: every full scan evicts
	k.Go("t", func(p *sim.Proc) {
		tr := mk(p)
		loadTree(t, p, tr, 3000, 40)
		pairs, err := tr.ScanRange(p, key(100), key(700), 0)
		if err != nil || len(pairs) != 600 {
			t.Errorf("scan: %d pairs, %v", len(pairs), err)
			return
		}
		for i := 0; i < 2; i++ {
			if all, err := tr.ScanRange(p, nil, nil, 0); err != nil || len(all) != 3000 {
				t.Errorf("full scan: %d pairs, %v", len(all), err)
			}
		}
		for i := 100; i < 700; i++ {
			nv := bytes.ToUpper(wideVal(i, 40)) // same size: rewritten in place
			if i%7 == 0 {
				nv = wideVal(-i, 90) // larger: moves within the leaf, or splits it
			}
			if err := tr.Update(p, key(i), nv); err != nil {
				t.Errorf("update %d: %v", i, err)
				return
			}
		}
		again, err := tr.ScanRange(p, key(100), key(700), 0)
		if err != nil || len(again) != 600 {
			t.Errorf("rescan: %d pairs, %v", len(again), err)
			return
		}
		for j, pr := range pairs {
			i := 100 + j
			if !bytes.Equal(pr.Key, key(i)) || !bytes.Equal(pr.Val, wideVal(i, 40)) {
				t.Errorf("pair %d changed under its owner: %x = %q", i, pr.Key, pr.Val)
				return
			}
			if bytes.Equal(again[j].Val, pr.Val) {
				t.Errorf("rescan of %d does not see the update", i)
			}
		}
		// Growing one slice must not run into its neighbour's bytes.
		_ = append(pairs[0].Key, 0xEE)
		_ = append(pairs[0].Val, 0xEE)
		if !bytes.Equal(pairs[0].Val, wideVal(100, 40)) || !bytes.Equal(pairs[1].Key, key(101)) {
			t.Error("append to one pair overwrote the next")
		}
	})
	k.Run(time.Minute)
}

// A Pair from Iterator.Next aliases the iterator's copy of the leaf: it
// is intact until the next Next, and a pair kept past it without copying
// is overwritten once the iterator has moved to another leaf.
func TestIteratorPairValidUntilNext(t *testing.T) {
	k := newKernel(t, 1)
	mk := rig(k, 256)
	k.Go("t", func(p *sim.Proc) {
		tr := mk(p)
		loadTree(t, p, tr, 4000, 100)
		it, err := tr.Scan(p, nil)
		if err != nil {
			t.Error(err)
			return
		}
		var kept Pair
		n := 0
		for ; ; n++ {
			pair, ok, err := it.Next(p)
			if err != nil {
				t.Error(err)
				return
			}
			if !ok {
				break
			}
			if !bytes.Equal(pair.Key, key(n)) || !bytes.Equal(pair.Val, wideVal(n, 100)) {
				t.Errorf("entry %d: %x = %q", n, pair.Key, pair.Val)
				return
			}
			if n == 0 {
				kept = pair
			}
		}
		if n != 4000 || it.leaves < 50 {
			t.Errorf("scanned %d entries over %d leaves", n, it.leaves+1)
		}
		if bytes.Equal(kept.Val, wideVal(0, 100)) {
			t.Error("a pair kept without copying survived 50 leaves: Next no longer aliases its image")
		}
	})
	k.Run(time.Minute)
}

// VisitRange hands fn exactly the entries ScanRange returns, stops at
// fn's first error, and copies nothing once the pages are resident.
func TestVisitRangeMatchesScanRange(t *testing.T) {
	k := newKernel(t, 1)
	mk := rig(k, 256)
	k.Go("t", func(p *sim.Proc) {
		tr := mk(p)
		loadTree(t, p, tr, 4000, 100)
		for _, r := range [][2][]byte{{key(1000), key(1100)}, {nil, key(7)}, {key(3990), nil}, {key(5000), nil}} {
			want, err := tr.ScanRange(p, r[0], r[1], 0)
			if err != nil {
				t.Error(err)
				return
			}
			n := 0
			err = tr.VisitRange(p, r[0], r[1], func(pr Pair) error {
				if n >= len(want) || !bytes.Equal(pr.Key, want[n].Key) || !bytes.Equal(pr.Val, want[n].Val) {
					return fmt.Errorf("entry %d: %x", n, pr.Key)
				}
				n++
				return nil
			})
			if err != nil || n != len(want) {
				t.Errorf("[%x, %x): visited %d of %d, %v", r[0], r[1], n, len(want), err)
			}
		}

		stop := errors.New("stop")
		n := 0
		err := tr.VisitRange(p, nil, nil, func(Pair) error {
			if n++; n == 10 {
				return stop
			}
			return nil
		})
		if err != stop || n != 10 {
			t.Errorf("fn's error after %d entries: got %v", n, err)
		}

		rows := 0
		count := func(Pair) error { rows++; return nil }
		from, to := key(1000), key(1100)
		visit := func() {
			if err := tr.VisitRange(p, from, to, count); err != nil {
				t.Error(err)
			}
		}
		if got := testing.AllocsPerRun(20, visit); got > 0 {
			t.Errorf("VisitRange of 100 resident rows: %.0f allocations", got)
		}
		if rows != 21*100 {
			t.Errorf("visited %d rows over 21 runs", rows)
		}
	})
	k.Run(time.Minute)
}

func TestScanAllocations(t *testing.T) {
	k := newKernel(t, 1)
	mk := rig(k, 256)
	k.Go("t", func(p *sim.Proc) {
		tr := mk(p)
		loadTree(t, p, tr, 4000, 100)
		leaves := leavesOf(t, p, tr) // and every page is resident from here on
		if leaves < 50 {
			t.Fatalf("tree has %d leaves, want 50 or more", leaves)
		}

		// 100 rows: one arena per leaf they span, the result slice, O(1) more.
		from, to := key(1000), key(1100)
		perLeaf := 4000 / leaves
		spanned := 100/perLeaf + 2
		scan := func() {
			if pairs, err := tr.ScanRange(p, from, to, 0); err != nil || len(pairs) != 100 {
				t.Errorf("scan: %d pairs, %v", len(pairs), err)
			}
		}
		scan() // builds the iterator the later scans reuse
		if got := testing.AllocsPerRun(20, scan); got > float64(spanned+1+2) {
			t.Errorf("ScanRange of 100 resident rows over at most %d leaves: %.0f allocations", spanned, got)
		}

		// Iterator.Next: the iterator and its image, not the leaves or the entries.
		walk := func() {
			it, err := tr.Scan(p, nil)
			if err != nil {
				t.Error(err)
				return
			}
			for {
				if _, ok, err := it.Next(p); err != nil || !ok {
					return
				}
			}
		}
		if got := testing.AllocsPerRun(5, walk); got > 16 {
			t.Errorf("Next over %d leaves and 4000 entries: %.0f allocations", leaves, got)
		}

		// A closed iterator goes back to the tree, image and all, for the
		// next Scan to take.
		closed := func() {
			it, err := tr.Scan(p, nil)
			if err != nil {
				t.Error(err)
				return
			}
			for {
				if _, ok, err := it.Next(p); err != nil || !ok {
					break
				}
			}
			it.Close()
		}
		closed()
		if got := testing.AllocsPerRun(5, closed); got > 0 {
			t.Errorf("Scan, Next over %d leaves and Close, warm: %.0f allocations", leaves, got)
		}
	})
	k.Run(time.Minute)
}
