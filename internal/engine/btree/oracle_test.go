package btree

import (
	"bytes"
	"fmt"
	"math/rand"
	"slices"
	"testing"
	"time"

	"remotedb/internal/engine/row"
	"remotedb/internal/sim"
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
			case 9: // range scan
				lo := int64(rng.Intn(keySpace))
				hi := lo + int64(rng.Intn(100))
				pairs, err := tr.ScanRange(p, row.EncodeKey(nil, lo), row.EncodeKey(nil, hi), 0)
				if err != nil {
					t.Fatalf("step %d scan: %v", step, err)
				}
				var want []int64
				for ok := range oracle {
					if ok >= lo && ok < hi {
						want = append(want, ok)
					}
				}
				slices.Sort(want)
				if len(pairs) != len(want) {
					t.Fatalf("step %d scan [%d,%d): %d pairs, want %d", step, lo, hi, len(pairs), len(want))
				}
				for i, pr := range pairs {
					if !bytes.Equal(pr.Key, row.EncodeKey(nil, want[i])) {
						t.Fatalf("step %d scan order mismatch at %d", step, i)
					}
					if !bytes.Equal(pr.Val, oracle[want[i]]) {
						t.Fatalf("step %d scan value mismatch for key %d", step, want[i])
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
