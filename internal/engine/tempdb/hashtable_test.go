package tempdb

import (
	"bytes"
	"fmt"
	"testing"
	"time"

	"remotedb/internal/sim"
	"remotedb/internal/vfs"
)

func TestHashTableExactRecall(t *testing.T) {
	k := newKernel(t, 1)
	k.Go("t", func(p *sim.Proc) {
		td := New(vfs.NewMemFile("tempdb"))
		ht := td.NewHashTable("ht", 8, 256)
		want := make(map[int][][]byte)
		for i := 0; i < 500; i++ {
			rec := []byte(fmt.Sprintf("rec-%d-%s", i, bytes.Repeat([]byte{'y'}, i%40)))
			b := i % 8
			want[b] = append(want[b], rec)
			if err := ht.Put(p, b, rec); err != nil {
				t.Error(err)
				return
			}
		}
		if err := ht.Flush(p); err != nil {
			t.Error(err)
			return
		}
		for b := 0; b < 8; b++ {
			var got [][]byte
			err := ht.Probe(p, b, func(rec []byte) error {
				got = append(got, append([]byte(nil), rec...))
				return nil
			})
			if err != nil {
				t.Error(err)
				return
			}
			if len(got) != len(want[b]) {
				t.Errorf("bucket %d: %d records, want %d (chain overflow lost records?)", b, len(got), len(want[b]))
				return
			}
			for i := range got {
				if !bytes.Equal(got[i], want[b][i]) {
					t.Errorf("bucket %d record %d mismatch", b, i)
					return
				}
			}
		}
		if ht.Records != 500 {
			t.Errorf("Records = %d, want 500", ht.Records)
		}
		// 500 records over 8 buckets with ~256-byte blocks must chain.
		if ht.Blocks <= 8 {
			t.Errorf("Blocks = %d; the test did not exercise overflow chains", ht.Blocks)
		}
	})
	k.Run(time.Minute)
}

func TestHashTableRecycledExtentsStayClean(t *testing.T) {
	// A released table returns its extents to the free list; a new table
	// reusing them must not see the old records (blocks are written
	// zero-padded in full).
	k := newKernel(t, 1)
	k.Go("t", func(p *sim.Proc) {
		td := New(vfs.NewMemFile("tempdb"))
		old := td.NewHashTable("old", 4, 512)
		junk := bytes.Repeat([]byte{0xEE}, 400)
		for i := 0; i < 200; i++ {
			old.Put(p, i%4, junk)
		}
		old.Flush(p)
		old.Release()

		ht := td.NewHashTable("new", 4, 512)
		ht.Put(p, 0, []byte("only-record"))
		ht.Flush(p)
		for b := 0; b < 4; b++ {
			n := 0
			err := ht.Probe(p, b, func(rec []byte) error {
				n++
				if !bytes.Equal(rec, []byte("only-record")) {
					t.Errorf("bucket %d surfaced stale record %q", b, rec)
				}
				return nil
			})
			if err != nil {
				t.Error(err)
				return
			}
			if b == 0 && n != 1 {
				t.Errorf("bucket 0 has %d records, want 1", n)
			}
			if b != 0 && n != 0 {
				t.Errorf("bucket %d has %d records, want 0", b, n)
			}
		}
	})
	k.Run(time.Minute)
}

func TestHashTableOversizeRecordRejected(t *testing.T) {
	k := newKernel(t, 1)
	k.Go("t", func(p *sim.Proc) {
		td := New(vfs.NewMemFile("tempdb"))
		ht := td.NewHashTable("ht", 2, 64)
		if err := ht.Put(p, 0, make([]byte, 61)); err == nil {
			t.Error("61-byte record in a 64-byte bucket should not fit with its prefix")
		}
		if err := ht.Put(p, 0, make([]byte, 60)); err != nil {
			t.Errorf("60-byte record should fit: %v", err)
		}
	})
	k.Run(time.Minute)
}

func TestHashTableLifecyclePanics(t *testing.T) {
	k := newKernel(t, 1)
	k.Go("t", func(p *sim.Proc) {
		td := New(vfs.NewMemFile("tempdb"))
		ht := td.NewHashTable("ht", 2, 64)
		func() {
			defer func() {
				if recover() == nil {
					t.Error("Probe before Flush should panic")
				}
			}()
			ht.Probe(p, 0, func([]byte) error { return nil })
		}()
		ht.Flush(p)
		func() {
			defer func() {
				if recover() == nil {
					t.Error("Put after Flush should panic")
				}
			}()
			ht.Put(p, 0, []byte("late"))
		}()
	})
	k.Run(time.Minute)
}
