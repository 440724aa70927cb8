package core

import (
	"encoding/binary"
	"errors"
	"testing"
	"time"

	"remotedb/internal/rmem"
	"remotedb/internal/sim"
)

// pushTestRec encodes one (int64, bytes) record in the engine's row
// layout: 8-byte big-endian int, 2-byte big-endian length prefix.
func pushTestRec(v int64, payload []byte) []byte {
	rec := make([]byte, 8, 10+len(payload))
	binary.BigEndian.PutUint64(rec, uint64(v))
	var lenb [2]byte
	binary.BigEndian.PutUint16(lenb[:], uint16(len(payload)))
	rec = append(rec, lenb[:]...)
	return append(rec, payload...)
}

// loadPushLog writes count records into f as a chunk-aligned pushable
// log and returns the log's byte length.
func loadPushLog(t *testing.T, p *sim.Proc, f *File, count int) int64 {
	t.Helper()
	var seg []byte
	chunk := f.PushChunk()
	for i := 0; i < count; i++ {
		seg = rmem.AppendPushRecord(seg, pushTestRec(int64(i), make([]byte, 64)), chunk)
	}
	seg = rmem.PadPushChunk(seg, chunk)
	if err := f.WriteAt(p, seg, 0); err != nil {
		t.Fatalf("load push log: %v", err)
	}
	return int64(len(seg))
}

func pushTestQuery(lt int64) *rmem.PushQuery {
	return &rmem.PushQuery{
		Cols:  []rmem.FieldKind{rmem.FieldInt64, rmem.FieldBytes},
		Preds: []rmem.PushLeaf{{Col: 0, Op: rmem.PushLT, Int: lt}},
		Proj:  []int{0},
	}
}

func collectInts(t *testing.T, log []byte) []int64 {
	t.Helper()
	var got []int64
	if err := rmem.PushRecords(log, func(rec []byte) error {
		got = append(got, int64(binary.BigEndian.Uint64(rec)))
		return nil
	}); err != nil {
		t.Fatalf("parse returned log: %v", err)
	}
	return got
}

func TestPushReadFiltersAtDonor(t *testing.T) {
	k := newKernel(t, 1)
	k.Go("t", func(p *sim.Proc) {
		e := newEnv(p, 2, 8, integrityCfg(1))
		f, err := e.fs.Create(p, "t", 2<<20)
		if err != nil {
			t.Error(err)
			return
		}
		f.OpenConn(p)
		n := loadPushLog(t, p, f, 2000)
		rd0, rt0 := e.fs.Client.BytesRead, e.fs.Client.RoundTrips
		out, stats, err := f.PushRead(p, 0, n, pushTestQuery(10))
		if err != nil {
			t.Errorf("PushRead: %v", err)
			return
		}
		got := collectInts(t, out)
		if len(got) != 10 {
			t.Errorf("matched rows = %d, want 10", len(got))
		}
		if stats.RowsScanned != 2000 {
			t.Errorf("rows scanned = %d, want 2000", stats.RowsScanned)
		}
		if stats.DonorCPU <= 0 {
			t.Error("donor CPU not charged")
		}
		// Only qualifying bytes crossed the wire — far less than the log.
		if wired := e.fs.Client.BytesRead - rd0; wired >= n/10 {
			t.Errorf("pushed read moved %d of %d log bytes", wired, n)
		}
		if rts := e.fs.Client.RoundTrips - rt0; rts >= int64(n)/int64(f.PushChunk()) {
			t.Errorf("pushed read charged %d round trips for %d blocks", rts, n/int64(f.PushChunk()))
		}
		if e.fs.PushReads != 1 || e.fs.PushFallbacks != 0 {
			t.Errorf("push counters = %d/%d, want 1/0", e.fs.PushReads, e.fs.PushFallbacks)
		}
	})
	k.Run(time.Minute)
}

func TestPushReadCorruptBlockFallsBackNoError(t *testing.T) {
	k := newKernel(t, 1)
	k.Go("t", func(p *sim.Proc) {
		e := newEnv(p, 3, 8, integrityCfg(2))
		f, err := e.fs.Create(p, "t", 1<<20)
		if err != nil {
			t.Error(err)
			return
		}
		f.OpenConn(p)
		n := loadPushLog(t, p, f, 500)
		// Corrupt one block on the primary: the donor's verify-before-eval
		// must catch it, and the fallback serves it from the replica.
		if !f.InjectBlockFlip(2, 0) {
			t.Error("injection failed")
			return
		}
		out, _, err := f.PushRead(p, 0, n, pushTestQuery(1<<40))
		if err != nil {
			t.Errorf("PushRead over corrupt block: %v", err)
			return
		}
		got := collectInts(t, out)
		if len(got) != 500 {
			t.Errorf("rows = %d, want all 500 despite corruption", len(got))
		}
		for i, v := range got {
			if v != int64(i) {
				t.Errorf("row %d = %d; fallback changed results", i, v)
				break
			}
		}
		if e.fs.PushFallbacks == 0 {
			t.Error("no fallback recorded")
		}
		if e.fs.Corruptions.N == 0 {
			t.Error("donor-side verification failure not counted")
		}
		if e.fs.Repairs.N == 0 {
			t.Error("fallback fetch did not repair the corrupt copy")
		}
	})
	k.Run(time.Minute)
}

func TestPushReadRevokedReplicaFailsOverNoError(t *testing.T) {
	k := newKernel(t, 1)
	k.Go("t", func(p *sim.Proc) {
		e := newEnv(p, 3, 8, integrityCfg(2))
		f, err := e.fs.Create(p, "t", 1<<20)
		if err != nil {
			t.Error(err)
			return
		}
		f.OpenConn(p)
		n := loadPushLog(t, p, f, 500)
		// Revoke the primary lease of stripe 0: elements on it must fall
		// over to the surviving replica with no engine-visible error.
		e.b.Revoke(f.LeaseIDs()[0])
		out, _, err := f.PushRead(p, 0, n, pushTestQuery(1<<40))
		if err != nil {
			t.Errorf("PushRead during replica loss: %v", err)
			return
		}
		if got := collectInts(t, out); len(got) != 500 {
			t.Errorf("rows = %d, want all 500 despite revocation", len(got))
		}
	})
	k.Run(time.Minute)
}

func TestPushReadUnframedOrEncryptedUnavailable(t *testing.T) {
	k := newKernel(t, 1)
	k.Go("t", func(p *sim.Proc) {
		// Unframed file: no per-element integrity, so no pushdown.
		e := newEnv(p, 2, 8, DefaultConfig())
		f, _ := e.fs.Create(p, "t", 1<<20)
		f.OpenConn(p)
		if f.PushChunk() != 0 {
			t.Error("unframed file advertises a push chunk")
		}
		_, _, err := f.PushRead(p, 0, 4096, pushTestQuery(1))
		if !errors.Is(err, ErrNoPush) {
			t.Errorf("unframed PushRead err = %v, want ErrNoPush", err)
		}
		// Encrypted client: donors hold ciphertext, pushdown unavailable.
		ccfg := rmem.DefaultClientConfig()
		ccfg.Encrypt = true
		e2 := newEnvClient(p, 2, 8, integrityCfg(1), ccfg)
		f2, _ := e2.fs.Create(p, "t", 1<<20)
		f2.OpenConn(p)
		loadPushLog(t, p, f2, 10)
		_, _, err = f2.PushRead(p, 0, 4096, pushTestQuery(1))
		if !errors.Is(err, ErrNoPush) {
			t.Errorf("encrypted PushRead err = %v, want ErrNoPush", err)
		}
	})
	k.Run(time.Minute)
}

func TestPushReadSkipsNeverWrittenBlocks(t *testing.T) {
	k := newKernel(t, 1)
	k.Go("t", func(p *sim.Proc) {
		e := newEnv(p, 2, 8, integrityCfg(1))
		f, _ := e.fs.Create(p, "t", 1<<20)
		f.OpenConn(p)
		rt0 := e.fs.Client.RoundTrips
		out, stats, err := f.PushRead(p, 0, 64<<10, pushTestQuery(1))
		if err != nil {
			t.Errorf("PushRead over hole: %v", err)
			return
		}
		if len(out) != 0 || stats.BytesScanned != 0 {
			t.Error("hole read scanned bytes")
		}
		if e.fs.Client.RoundTrips != rt0 {
			t.Error("hole read touched the wire")
		}
	})
	k.Run(time.Minute)
}
