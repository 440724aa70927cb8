package btree

import (
	"bytes"
	"errors"
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

// TestRandomOpsAgainstMapOracle drives a long random sequence of
// Put/Delete/Search/ScanRange against both the tree and a plain map and
// requires them to agree at every step — the strongest structural check
// in the suite.
func TestRandomOpsAgainstMapOracle(t *testing.T) {
	k := newKernel(t, 1)
	mk := rig(k, 1024)
	k.Go("t", func(p *sim.Proc) {
		tr := mk(p)
		oracle := make(map[int64][]byte)
		rng := rand.New(rand.NewSource(99))
		const keySpace = 2000

		for step := 0; step < 20000; step++ {
			key := int64(rng.Intn(keySpace))
			kb := row.EncodeKey(nil, key)
			switch rng.Intn(10) {
			case 0, 1, 2, 3: // put
				val := []byte(fmt.Sprintf("v-%d-%d", key, step))
				if err := tr.Put(p, kb, val); err != nil {
					t.Fatalf("step %d put: %v", step, err)
				}
				oracle[key] = val
			case 4, 5: // delete
				err := tr.Delete(p, kb)
				_, existed := oracle[key]
				if existed && err != nil {
					t.Fatalf("step %d delete existing: %v", step, err)
				}
				if !existed && err != ErrNotFound {
					t.Fatalf("step %d delete missing: %v", step, err)
				}
				delete(oracle, key)
			case 6, 7, 8: // search
				got, err := tr.Search(p, kb)
				want, existed := oracle[key]
				if existed {
					if err != nil || !bytes.Equal(got, want) {
						t.Fatalf("step %d search: got %q err %v, want %q", step, got, err, want)
					}
				} else if err != ErrNotFound {
					t.Fatalf("step %d search missing: %v", step, err)
				}
			case 9: // range scan, through every way to read a range
				lo := int64(rng.Intn(keySpace))
				hi := lo + int64(rng.Intn(100)) - 5 // hi <= lo: an empty range
				from, to := row.EncodeKey(nil, lo), row.EncodeKey(nil, hi)
				switch rng.Intn(8) {
				case 0:
					from, lo = nil, -1
				case 1:
					to, hi = nil, keySpace
				}
				limit := 0
				if rng.Intn(3) == 0 {
					limit = 1 + rng.Intn(40)
				}
				var want []int64
				for ok := range oracle {
					if ok >= lo && ok < hi {
						want = append(want, ok)
					}
				}
				slices.Sort(want)
				if limit > 0 && len(want) > limit {
					want = want[:limit]
				}
				var gets0 int64
				for mode := byIterator; mode <= byVisitRange; mode++ {
					st := tr.Pool().Stats
					pairs, err := readRange(p, tr, mode, from, to, limit)
					if err != nil {
						t.Fatalf("step %d %v: %v", step, mode, err)
					}
					if len(pairs) != len(want) {
						t.Fatalf("step %d %v [%d,%d) limit %d: %d pairs, want %d", step, mode, lo, hi, limit, len(pairs), len(want))
					}
					for i, pr := range pairs {
						if !bytes.Equal(pr.Key, row.EncodeKey(nil, want[i])) {
							t.Fatalf("step %d %v order mismatch at %d", step, mode, i)
						}
						if !bytes.Equal(pr.Val, oracle[want[i]]) {
							t.Fatalf("step %d %v value mismatch for key %d", step, mode, want[i])
						}
					}
					gets := tr.Pool().Stats.Hits - st.Hits
					if mode == byIterator {
						gets0 = gets
					} else if gets != gets0 {
						t.Fatalf("step %d %v: %d page gets, Scan/Next %d", step, mode, gets, gets0)
					}
				}
			}
		}
		if tr.Entries != int64(len(oracle)) {
			t.Fatalf("entry count %d, oracle %d", tr.Entries, len(oracle))
		}
		checkSortedNodes(t, p, tr)
	})
	k.Run(time.Hour)
}

// TestOracleWithVariableSizedValues stresses in-place updates, growth
// re-insertion, and compaction with values from 1 byte to 3 KiB.
func TestOracleWithVariableSizedValues(t *testing.T) {
	k := newKernel(t, 1)
	mk := rig(k, 2048)
	k.Go("t", func(p *sim.Proc) {
		tr := mk(p)
		oracle := make(map[int64][]byte)
		rng := rand.New(rand.NewSource(5))
		for step := 0; step < 5000; step++ {
			key := int64(rng.Intn(300))
			kb := row.EncodeKey(nil, key)
			size := 1 + rng.Intn(3000)
			val := bytes.Repeat([]byte{byte(step)}, size)
			if err := tr.Put(p, kb, val); err != nil {
				t.Fatalf("step %d put %dB: %v", step, size, err)
			}
			oracle[key] = val
		}
		for key, want := range oracle {
			got, err := tr.Search(p, row.EncodeKey(nil, key))
			if err != nil || !bytes.Equal(got, want) {
				t.Fatalf("key %d: err %v, len %d want %d", key, err, len(got), len(want))
			}
		}
		checkSortedNodes(t, p, tr)
	})
	k.Run(time.Hour)
}

// walkMode is one way to read a key range.
type walkMode int

const (
	byIterator   walkMode = iota // Scan and Next: the reference
	byScanRange                  // the in-place walk, into arenas
	byVisitRange                 // the in-place walk, handed to fn
)

func (m walkMode) String() string { return [...]string{"Scan/Next", "ScanRange", "VisitRange"}[m] }

var errEnough = errors.New("limit reached")

// readRange reads up to limit entries (0 = all) with from <= key < to
// through mode, each copied. VisitRange's fn stops it at the limit.
func readRange(p *sim.Proc, tr *Tree, mode walkMode, from, to []byte, limit int) ([]Pair, error) {
	var out []Pair
	keep := func(pr Pair) error {
		out = append(out, Pair{Key: bytes.Clone(pr.Key), Val: bytes.Clone(pr.Val)})
		if limit > 0 && len(out) == limit {
			return errEnough
		}
		return nil
	}
	switch mode {
	case byScanRange:
		return tr.ScanRange(p, from, to, limit)
	case byVisitRange:
		if err := tr.VisitRange(p, from, to, keep); err != errEnough {
			return out, err
		}
		return out, nil
	}
	it, err := tr.Scan(p, from)
	if err != nil {
		return nil, err
	}
	for {
		pr, ok, err := it.Next(p)
		if err != nil || !ok || (to != nil && bytes.Compare(pr.Key, to) >= 0) {
			return out, err
		}
		if keep(pr) == errEnough {
			return out, nil
		}
	}
}

// liveKeysOf returns the live keys of the leaf covering k, in slot order.
func liveKeysOf(t *testing.T, p *sim.Proc, tr *Tree, k []byte) [][]byte {
	t.Helper()
	h, err := tr.descendToLeaf(p, k)
	if err != nil {
		t.Fatal(err)
	}
	defer h.Release()
	var keys [][]byte
	for i := 1; i < h.Page().NumSlots(); i++ {
		if rec, live := h.Page().Slot(i); live {
			k, _ := decodeLeaf(rec)
			keys = append(keys, bytes.Clone(k))
		}
	}
	return keys
}

// walkRun is what one range read did on its twin of the simulation.
type walkRun struct {
	pairs []Pair
	err   error
	end   time.Duration // virtual time when the read returned
	stats buffer.Stats  // the pool's counters then
	grown uint64        // pages allocated while it ran
}

// TestRangeWalksMatchIterator reads one range three ways — Scan/Next,
// ScanRange and VisitRange — each on its own twin of the same simulation:
// 40 leaves of even keys over a 16-frame pool, every page in an extension
// that takes 13 µs a read. The in-place walks must return what Next
// returns and read the leaves Next reads, in the same order with the same
// readahead: same entries, same virtual time, same pool counters. The
// cases cover open bounds, bounds on and between keys, empty ranges, dead
// slots from deletes and moving updates (a leaf whose slots >= to are all
// dead among them), a limit on a leaf's last entry, and a writer splitting
// leaves while a read is between two of them.
func TestRangeWalksMatchIterator(t *testing.T) {
	const n = 2400 // keys 0, 2, ..., 2n-2
	type span struct {
		from, to []byte
		limit    int
	}
	cases := []struct {
		name   string
		prep   func(p *sim.Proc, tr *Tree) span // before the pages go to the extension
		splits bool                             // a writer splits leaves during the read
	}{
		{"open", func(*sim.Proc, *Tree) span { return span{} }, false},
		{"on-keys", func(*sim.Proc, *Tree) span { return span{key(200), key(1800), 0} }, false},
		{"between-keys", func(*sim.Proc, *Tree) span { return span{key(201), key(1799), 0} }, false},
		{"open-from-limit", func(*sim.Proc, *Tree) span { return span{nil, key(3001), 700} }, false},
		{"empty", func(*sim.Proc, *Tree) span { return span{key(1000), key(1000), 0} }, false},
		{"inverted", func(*sim.Proc, *Tree) span { return span{key(1201), key(1000), 0} }, false},
		{"past-the-end", func(*sim.Proc, *Tree) span { return span{key(2 * n), nil, 0} }, false},
		{"dead-slots", func(p *sim.Proc, tr *Tree) span {
			for i := 400; i < 1600; i += 2 {
				var err error
				switch i % 6 {
				case 0:
					err = tr.Delete(p, key(i))
				case 2:
					err = tr.Update(p, key(i), wideVal(-i, 160)) // larger: moves within the leaf, or splits it
				}
				if err != nil {
					t.Fatal(err)
				}
			}
			return span{key(400), key(1600), 0}
		}, false},
		{"dead-tail", func(p *sim.Proc, tr *Tree) span {
			// Every slot >= to in to's leaf is dead: the read goes on to
			// the next leaf, whose first key ends it.
			keys := liveKeysOf(t, p, tr, key(1000))
			to := keys[len(keys)/2]
			for _, k := range keys[len(keys)/2:] {
				if err := tr.Delete(p, k); err != nil {
					t.Fatal(err)
				}
			}
			return span{key(600), to, 0}
		}, false},
		{"limit-at-leaf-end", func(p *sim.Proc, tr *Tree) span {
			limit := 0 // the entries >= from in from's leaf
			for _, k := range liveKeysOf(t, p, tr, key(601)) {
				if bytes.Compare(k, key(601)) >= 0 {
					limit++
				}
			}
			return span{key(601), key(4000), limit}
		}, false},
		{"splits", func(*sim.Proc, *Tree) span { return span{key(0), key(4000), 0} }, true},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			var runs [3]walkRun
			var sp span
			for mode := byIterator; mode <= byVisitRange; mode++ {
				k := newKernel(t, 1)
				cfg := cluster.DefaultConfig()
				cfg.MemoryBytes = 1 << 30
				s := cluster.NewServer(k, "db", cfg)
				k.Go("t", func(p *sim.Proc) {
					bcfg := buffer.DefaultConfig(16)
					bcfg.WriterPeriod = 0
					bcfg.PageAccessCPU = 0
					bp, err := buffer.New(p, s, vfs.NewDeviceFile("data", disk.NullDevice{DeviceName: "null"}), bcfg)
					if err != nil {
						t.Fatal(err)
					}
					bp.AttachExtension(&extFile{mem: vfs.NewMemFile("ext"), delay: 13 * time.Microsecond}, 256)
					tr, err := New(p, bp, "twin")
					if err != nil {
						t.Fatal(err)
					}
					pairs := make([]Pair, n)
					for i := range pairs {
						pairs[i] = Pair{Key: key(2 * i), Val: wideVal(2*i, extWidth)}
					}
					if err := tr.BulkLoad(p, pairs, 0.9); err != nil {
						t.Fatal(err)
					}
					sp = c.prep(p, tr)
					if err := bp.FlushAll(p); err != nil {
						t.Fatal(err)
					}
					if _, err := readRange(p, tr, byIterator, nil, nil, 0); err != nil {
						t.Fatal(err) // every page passes through the pool to the extension
					}
					p.Sleep(time.Millisecond)
					wg := sim.NewWaitGroup(k)
					if c.splits {
						wg.Add(1)
						k.Go("writer", func(wp *sim.Proc) {
							defer wg.Done()
							wp.Sleep(20 * time.Microsecond)
							// Sixteen odd keys overflow a leaf filled to 0.9.
							for base := 300; base < 2000; base += 400 {
								for j := 0; j < 16; j++ {
									if err := tr.Insert(wp, key(base+2*j+1), wideVal(base, extWidth)); err != nil {
										t.Error(err)
										return
									}
								}
								wp.Sleep(15 * time.Microsecond)
							}
						})
					}
					pages := bp.PageCount()
					r := &runs[mode]
					r.pairs, r.err = readRange(p, tr, mode, sp.from, sp.to, sp.limit)
					r.end, r.stats, r.grown = p.Now(), bp.Stats, bp.PageCount()-pages
					wg.Wait(p)
					p.Sleep(time.Millisecond)
					checkIdle(t, bp)
				})
				k.Run(time.Hour)
			}
			ref := runs[byIterator]
			if ref.err != nil {
				t.Fatal(ref.err)
			}
			if c.splits {
				odd := 0 // keys the writer inserted ahead of the read
				for _, pr := range ref.pairs {
					odd += int(pr.Key[len(pr.Key)-1] & 1)
				}
				if ref.grown == 0 || odd == 0 {
					t.Fatalf("%d pages grown while the read ran, %d inserted keys read", ref.grown, odd)
				}
			}
			if sp.limit > 0 && len(ref.pairs) != sp.limit {
				t.Fatalf("%d entries under a limit of %d", len(ref.pairs), sp.limit)
			}
			for mode := byScanRange; mode <= byVisitRange; mode++ {
				r := runs[mode]
				if r.err != nil {
					t.Fatalf("%v: %v", mode, r.err)
				}
				if len(r.pairs) != len(ref.pairs) {
					t.Fatalf("%v: %d entries, Scan/Next %d", mode, len(r.pairs), len(ref.pairs))
				}
				for i, pr := range r.pairs {
					if !bytes.Equal(pr.Key, ref.pairs[i].Key) || !bytes.Equal(pr.Val, ref.pairs[i].Val) {
						t.Fatalf("%v: entry %d is %x, Scan/Next %x", mode, i, pr.Key, ref.pairs[i].Key)
					}
				}
				if r.end != ref.end || r.stats != ref.stats || r.grown != ref.grown {
					t.Errorf("%v: ended at %v with %+v, %d pages grown; Scan/Next at %v with %+v, %d",
						mode, r.end, r.stats, r.grown, ref.end, ref.stats, ref.grown)
				}
			}
		})
	}
}
