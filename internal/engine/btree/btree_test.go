package btree

import (
	"bytes"
	"fmt"
	"math/rand"
	"slices"
	"testing"
	"time"

	"remotedb/internal/cluster"
	"remotedb/internal/engine/buffer"
	"remotedb/internal/engine/row"
	"remotedb/internal/hw/disk"
	"remotedb/internal/sim"
	"remotedb/internal/vfs"
)

// rig builds a tree on a null device (no I/O time) so tests run at full
// speed; frames is the pool size in pages.
func rig(k *sim.Kernel, frames int) func(p *sim.Proc) *Tree {
	cfg := cluster.DefaultConfig()
	cfg.MemoryBytes = 1 << 30
	s := cluster.NewServer(k, "db", cfg)
	return func(p *sim.Proc) *Tree {
		data := vfs.NewDeviceFile("data", disk.NullDevice{DeviceName: "null"})
		bcfg := buffer.DefaultConfig(frames)
		bcfg.WriterPeriod = 0
		bcfg.PageAccessCPU = 0
		bp, err := buffer.New(p, s, data, bcfg)
		if err != nil {
			panic(err)
		}
		tr, err := New(p, bp, "t")
		if err != nil {
			panic(err)
		}
		return tr
	}
}

func key(i int) []byte { return row.EncodeKey(nil, int64(i)) }
func val(i int) []byte { return []byte(fmt.Sprintf("value-%d", i)) }

func TestInsertSearch(t *testing.T) {
	k := newKernel(t, 1)
	mk := rig(k, 256)
	k.Go("t", func(p *sim.Proc) {
		tr := mk(p)
		for i := 0; i < 1000; i++ {
			if err := tr.Insert(p, key(i), val(i)); err != nil {
				t.Errorf("insert %d: %v", i, err)
				return
			}
		}
		for i := 0; i < 1000; i++ {
			got, err := tr.Search(p, key(i))
			if err != nil || !bytes.Equal(got, val(i)) {
				t.Errorf("search %d: %q %v", i, got, err)
				return
			}
		}
		if _, err := tr.Search(p, key(5000)); err != ErrNotFound {
			t.Errorf("missing key: %v", err)
		}
		if tr.Entries != 1000 {
			t.Errorf("entries = %d", tr.Entries)
		}
		if tr.Height() < 2 {
			t.Errorf("height = %d, expected splits", tr.Height())
		}
	})
	k.Run(time.Minute)
}

func TestDuplicateRejected(t *testing.T) {
	k := newKernel(t, 1)
	mk := rig(k, 64)
	k.Go("t", func(p *sim.Proc) {
		tr := mk(p)
		tr.Insert(p, key(1), val(1))
		if err := tr.Insert(p, key(1), val(2)); err != ErrDuplicate {
			t.Errorf("duplicate insert: %v", err)
		}
		// Put upserts.
		if err := tr.Put(p, key(1), val(9)); err != nil {
			t.Errorf("put: %v", err)
		}
		got, _ := tr.Search(p, key(1))
		if !bytes.Equal(got, val(9)) {
			t.Errorf("after put: %q", got)
		}
	})
	k.Run(time.Minute)
}

func TestUpdateInPlaceAndGrow(t *testing.T) {
	k := newKernel(t, 1)
	mk := rig(k, 256)
	k.Go("t", func(p *sim.Proc) {
		tr := mk(p)
		for i := 0; i < 100; i++ {
			tr.Insert(p, key(i), val(i))
		}
		if err := tr.Update(p, key(50), []byte("xy")); err != nil {
			t.Error(err)
		}
		got, _ := tr.Search(p, key(50))
		if string(got) != "xy" {
			t.Errorf("small update: %q", got)
		}
		big := bytes.Repeat([]byte{7}, 3000)
		if err := tr.Update(p, key(50), big); err != nil {
			t.Error(err)
		}
		got, _ = tr.Search(p, key(50))
		if !bytes.Equal(got, big) {
			t.Error("big update lost")
		}
		if err := tr.Update(p, key(12345), []byte("x")); err != ErrNotFound {
			t.Errorf("update missing: %v", err)
		}
	})
	k.Run(time.Minute)
}

func TestDelete(t *testing.T) {
	k := newKernel(t, 1)
	mk := rig(k, 256)
	k.Go("t", func(p *sim.Proc) {
		tr := mk(p)
		for i := 0; i < 500; i++ {
			tr.Insert(p, key(i), val(i))
		}
		for i := 0; i < 500; i += 2 {
			if err := tr.Delete(p, key(i)); err != nil {
				t.Errorf("delete %d: %v", i, err)
			}
		}
		for i := 0; i < 500; i++ {
			_, err := tr.Search(p, key(i))
			if i%2 == 0 && err != ErrNotFound {
				t.Errorf("deleted key %d still present", i)
			}
			if i%2 == 1 && err != nil {
				t.Errorf("kept key %d lost: %v", i, err)
			}
		}
		if err := tr.Delete(p, key(0)); err != ErrNotFound {
			t.Errorf("double delete: %v", err)
		}
		if tr.Entries != 250 {
			t.Errorf("entries = %d", tr.Entries)
		}
	})
	k.Run(time.Minute)
}

func TestDeleteThenReinsertReusesSpace(t *testing.T) {
	k := newKernel(t, 1)
	mk := rig(k, 256)
	k.Go("t", func(p *sim.Proc) {
		tr := mk(p)
		// Fill, delete all, refill with different values: compaction must
		// make room without unbounded growth.
		for round := 0; round < 3; round++ {
			for i := 0; i < 300; i++ {
				if err := tr.Put(p, key(i), val(i+round*1000)); err != nil {
					t.Errorf("round %d insert %d: %v", round, i, err)
					return
				}
			}
			for i := 0; i < 300; i++ {
				tr.Delete(p, key(i))
			}
		}
		if tr.Entries != 0 {
			t.Errorf("entries = %d", tr.Entries)
		}
	})
	k.Run(time.Minute)
}

func TestScanOrdered(t *testing.T) {
	k := newKernel(t, 1)
	mk := rig(k, 512)
	k.Go("t", func(p *sim.Proc) {
		tr := mk(p)
		perm := rand.New(rand.NewSource(3)).Perm(2000)
		for _, i := range perm {
			tr.Insert(p, key(i), val(i))
		}
		it, err := tr.Scan(p, nil)
		if err != nil {
			t.Error(err)
			return
		}
		prev := -1
		count := 0
		for {
			pair, ok, err := it.Next(p)
			if err != nil {
				t.Error(err)
				return
			}
			if !ok {
				break
			}
			var got int64
			got = int64(decodeI(t, pair.Key))
			if int(got) <= prev {
				t.Errorf("scan out of order: %d after %d", got, prev)
				return
			}
			prev = int(got)
			count++
		}
		if count != 2000 {
			t.Errorf("scanned %d entries, want 2000", count)
		}
	})
	k.Run(time.Minute)
}

// decodeI inverts row.EncodeKey for a single int64.
func decodeI(t *testing.T, k []byte) int64 {
	t.Helper()
	if len(k) != 8 {
		t.Fatalf("key length %d", len(k))
	}
	var v uint64
	for _, b := range k {
		v = v<<8 | uint64(b)
	}
	return int64(v ^ (1 << 63))
}

func TestScanRangeBounds(t *testing.T) {
	k := newKernel(t, 1)
	mk := rig(k, 256)
	k.Go("t", func(p *sim.Proc) {
		tr := mk(p)
		for i := 0; i < 100; i++ {
			tr.Insert(p, key(i), val(i))
		}
		pairs, err := tr.ScanRange(p, key(10), key(20), 0)
		if err != nil {
			t.Error(err)
			return
		}
		if len(pairs) != 10 {
			t.Errorf("range [10,20) returned %d", len(pairs))
		}
		pairs, _ = tr.ScanRange(p, key(90), nil, 0)
		if len(pairs) != 10 {
			t.Errorf("open-ended range returned %d", len(pairs))
		}
		pairs, _ = tr.ScanRange(p, nil, nil, 7)
		if len(pairs) != 7 {
			t.Errorf("limited scan returned %d", len(pairs))
		}
	})
	k.Run(time.Minute)
}

func TestBulkLoadMatchesInserts(t *testing.T) {
	k := newKernel(t, 1)
	mk := rig(k, 2048)
	k.Go("t", func(p *sim.Proc) {
		tr := mk(p)
		var pairs []Pair
		for i := 0; i < 5000; i++ {
			pairs = append(pairs, Pair{Key: key(i), Val: val(i)})
		}
		if err := tr.BulkLoad(p, pairs, 0.9); err != nil {
			t.Error(err)
			return
		}
		if tr.Entries != 5000 {
			t.Errorf("entries = %d", tr.Entries)
		}
		for _, i := range []int{0, 1, 2499, 4998, 4999} {
			got, err := tr.Search(p, key(i))
			if err != nil || !bytes.Equal(got, val(i)) {
				t.Errorf("bulk search %d: %q %v", i, got, err)
			}
		}
		// Inserts after bulk load still work (splits included).
		for i := 5000; i < 5500; i++ {
			if err := tr.Insert(p, key(i), val(i)); err != nil {
				t.Errorf("post-bulk insert %d: %v", i, err)
				return
			}
		}
		all, _ := tr.ScanRange(p, nil, nil, 0)
		if len(all) != 5500 {
			t.Errorf("total entries = %d", len(all))
		}
	})
	k.Run(time.Minute)
}

func TestBulkLoadRejectsUnsorted(t *testing.T) {
	k := newKernel(t, 1)
	mk := rig(k, 64)
	k.Go("t", func(p *sim.Proc) {
		tr := mk(p)
		pairs := []Pair{{Key: key(2), Val: val(2)}, {Key: key(1), Val: val(1)}}
		if err := tr.BulkLoad(p, pairs, 0.9); err == nil {
			t.Error("unsorted bulk load accepted")
		}
	})
	k.Run(time.Minute)
}

func TestConcurrentInsertersDisjointKeys(t *testing.T) {
	k := newKernel(t, 1)
	mk := rig(k, 1024)
	k.Go("t", func(p *sim.Proc) {
		tr := mk(p)
		const workers, each = 8, 250
		done := sim.NewWaitGroup(k)
		done.Add(workers)
		for w := 0; w < workers; w++ {
			base := w * 10000
			k.Go("w", func(wp *sim.Proc) {
				for i := 0; i < each; i++ {
					if err := tr.Insert(wp, key(base+i), val(base+i)); err != nil {
						t.Errorf("concurrent insert: %v", err)
					}
					if i%10 == 0 {
						wp.Sleep(time.Microsecond) // force interleaving
					}
				}
				done.Done()
			})
		}
		done.Wait(p)
		all, err := tr.ScanRange(p, nil, nil, 0)
		if err != nil {
			t.Error(err)
			return
		}
		if len(all) != workers*each {
			t.Errorf("entries = %d, want %d", len(all), workers*each)
		}
		sorted := slices.IsSortedFunc(all, func(a, b Pair) int { return bytes.Compare(a.Key, b.Key) })
		if !sorted {
			t.Error("scan not sorted after concurrent inserts")
		}
	})
	k.Run(time.Minute)
}

func TestConcurrentReadersDuringSplits(t *testing.T) {
	k := newKernel(t, 1)
	mk := rig(k, 1024)
	k.Go("t", func(p *sim.Proc) {
		tr := mk(p)
		for i := 0; i < 500; i++ {
			tr.Insert(p, key(i*2), val(i*2)) // even keys
		}
		done := sim.NewWaitGroup(k)
		done.Add(2)
		// Writer inserts odd keys, forcing splits.
		k.Go("writer", func(wp *sim.Proc) {
			for i := 0; i < 500; i++ {
				tr.Insert(wp, key(i*2+1), val(i*2+1))
				if i%5 == 0 {
					wp.Sleep(time.Microsecond)
				}
			}
			done.Done()
		})
		// Reader repeatedly searches existing even keys.
		k.Go("reader", func(rp *sim.Proc) {
			for round := 0; round < 50; round++ {
				for _, i := range []int{0, 200, 500, 800, 998} {
					got, err := tr.Search(rp, key(i))
					if err != nil || !bytes.Equal(got, val(i)) {
						t.Errorf("reader during splits: key %d -> %q %v", i, got, err)
						done.Done()
						return
					}
				}
				rp.Sleep(time.Microsecond)
			}
			done.Done()
		})
		done.Wait(p)
	})
	k.Run(time.Minute)
}

func TestLargeEntryRejected(t *testing.T) {
	k := newKernel(t, 1)
	mk := rig(k, 64)
	k.Go("t", func(p *sim.Proc) {
		tr := mk(p)
		if err := tr.Insert(p, key(1), make([]byte, 8000)); err != ErrTooBig {
			t.Errorf("oversized entry: %v", err)
		}
	})
	k.Run(time.Minute)
}

func TestStringKeys(t *testing.T) {
	k := newKernel(t, 1)
	mk := rig(k, 256)
	k.Go("t", func(p *sim.Proc) {
		tr := mk(p)
		words := []string{"delta", "alpha", "echo", "bravo", "charlie"}
		for _, w := range words {
			tr.Insert(p, row.EncodeKey(nil, w), []byte(w))
		}
		all, _ := tr.ScanRange(p, nil, nil, 0)
		want := []string{"alpha", "bravo", "charlie", "delta", "echo"}
		for i, pair := range all {
			if string(pair.Val) != want[i] {
				t.Errorf("position %d = %q, want %q", i, pair.Val, want[i])
			}
		}
	})
	k.Run(time.Minute)
}

// TestSplitPointsBelowNarrowRoot splits trees whose root has too few
// separators for the split asked for: a bulk-loaded height-3 tree whose
// root has two children, and the same keys inserted one by one, whose
// inner levels grew by splits. Every split must come back with n-1
// ascending separators that cut the keys into ranges of comparable size.
func TestSplitPointsBelowNarrowRoot(t *testing.T) {
	const n, width = 2800, 1000 // about 7 entries a leaf: 400 leaves, 2 leaf parents
	k := newKernel(t, 1)
	mk := rig(k, 1024)
	k.Go("t", func(p *sim.Proc) {
		bulk, inserted := mk(p), mk(p)
		loadTree(t, p, bulk, n, width)
		for i := 0; i < n; i++ {
			if err := inserted.Insert(p, key(i), wideVal(i, width)); err != nil {
				t.Fatal(err)
			}
		}
		h, err := bulk.bp.Get(p, bulk.root)
		if err != nil {
			t.Fatal(err)
		}
		children := h.Page().NumSlots() - 1
		h.Release()
		if bulk.height != 3 || children != 2 {
			t.Fatalf("bulk-loaded tree has height %d and %d root children, want 3 and 2", bulk.height, children)
		}
		for _, tr := range []*Tree{bulk, inserted} {
			for _, parts := range []int{2, 4, 16, 64} {
				seps, err := tr.SplitPoints(p, parts)
				if err != nil || len(seps) != parts-1 {
					t.Fatalf("height-%d tree: SplitPoints(%d) gave %d separators, %v", tr.height, parts, len(seps), err)
				}
				lo := -1
				for i, s := range seps {
					at := int(decodeI(t, s))
					if at <= lo {
						t.Fatalf("SplitPoints(%d): separator %d is key %d, after %d", parts, i, at, lo)
					}
					// Each range holds within 2x of its fair share.
					if size, fair := at-max(lo, 0), n/parts; size < fair/2 || size > 2*fair {
						t.Errorf("SplitPoints(%d): range %d holds %d keys, fair share %d", parts, i, size, fair)
					}
					lo = at
				}
			}
		}
	})
	k.Run(0)
}
