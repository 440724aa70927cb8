package rmem

import (
	"encoding/binary"
	"errors"
	"testing"
	"time"

	"remotedb/internal/hw/nic"
	"remotedb/internal/sim"
)

// pushRec encodes one (int64, bytes) record the way the engine's row
// encoding does: 8-byte big-endian int, 2-byte big-endian length prefix.
func pushRec(v int64, payload []byte) []byte {
	rec := make([]byte, 8, 10+len(payload))
	binary.BigEndian.PutUint64(rec, uint64(v))
	var lenb [2]byte
	binary.BigEndian.PutUint16(lenb[:], uint16(len(payload)))
	rec = append(rec, lenb[:]...)
	return append(rec, payload...)
}

func pushSchema() []FieldKind { return []FieldKind{FieldInt64, FieldBytes} }

func TestEvalPushFiltersAndProjects(t *testing.T) {
	var seg []byte
	const chunk = 256
	for i := 0; i < 20; i++ {
		seg = AppendPushRecord(seg, pushRec(int64(i), []byte{0xBB, byte(i)}), chunk)
	}
	seg = PadPushChunk(seg, chunk)
	q := &PushQuery{
		Cols:  pushSchema(),
		Preds: []PushLeaf{{Col: 0, Op: PushGE, Int: 5}, {Col: 0, Op: PushLT, Int: 8}},
		Proj:  []int{0},
	}
	out, rows, matched, err := EvalPush(seg, q, nil)
	if err != nil {
		t.Fatal(err)
	}
	if rows != 20 || matched != 3 {
		t.Fatalf("rows=%d matched=%d, want 20/3", rows, matched)
	}
	var got []int64
	if err := PushRecords(out, func(rec []byte) error {
		if len(rec) != 8 {
			t.Fatalf("projected record is %d bytes, want 8", len(rec))
		}
		got = append(got, int64(binary.BigEndian.Uint64(rec)))
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	want := []int64{5, 6, 7}
	if len(got) != len(want) {
		t.Fatalf("got %v, want %v", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("got %v, want %v", got, want)
		}
	}
}

func TestAppendPushRecordNeverCrossesChunk(t *testing.T) {
	const chunk = 64
	var seg []byte
	for i := 0; i < 50; i++ {
		rec := pushRec(int64(i), []byte{1, 2, 3, 4, 5})
		before := len(seg)
		seg = AppendPushRecord(seg, rec, chunk)
		start := len(seg) - len(rec) - pushLenSize
		if start/chunk != (len(seg)-1)/chunk {
			t.Fatalf("record %d crosses a chunk boundary (seg %d->%d)", i, before, len(seg))
		}
	}
	// Every chunk must parse in isolation.
	seg = PadPushChunk(seg, chunk)
	total := 0
	for off := 0; off < len(seg); off += chunk {
		if err := PushRecords(seg[off:off+chunk], func([]byte) error { total++; return nil }); err != nil {
			t.Fatalf("chunk at %d: %v", off, err)
		}
	}
	if total != 50 {
		t.Fatalf("parsed %d records across chunks, want 50", total)
	}
}

func TestScanPushReturnsOnlyMatchingBytes(t *testing.T) {
	k := newKernel(t, 1)
	m := testServer(k, "m1")
	db := testServer(k, "db1")
	k.Go("x", func(p *sim.Proc) {
		pool, _ := NewPool(p, m, 1<<20, 1)
		mr, _ := pool.Acquire()
		tr := NewTransport(nic.ProtoRDMA)
		c := NewClient(p, db, DefaultClientConfig())

		const chunk = 4096
		var seg []byte
		for i := 0; i < 500; i++ {
			seg = AppendPushRecord(seg, pushRec(int64(i), make([]byte, 100)), chunk)
		}
		seg = PadPushChunk(seg, chunk)
		if err := tr.Write(p, c, mr, 0, seg); err != nil {
			t.Fatal(err)
		}
		rt0 := c.RoundTrips

		q := &PushQuery{Cols: pushSchema(), Preds: []PushLeaf{{Col: 0, Op: PushLT, Int: 5}}}
		var elems []PushElem
		for off := 0; off < len(seg); off += chunk {
			elems = append(elems, PushElem{MR: mr, Off: off, N: chunk})
		}
		outs, stats, errs := c.ScanPush(p, tr, elems, q)
		if errs != nil {
			t.Fatalf("ScanPush errs = %v", errs)
		}
		if stats.RowsScanned != 500 || stats.RowsMatched != 5 {
			t.Fatalf("rows=%d matched=%d, want 500/5", stats.RowsScanned, stats.RowsMatched)
		}
		if stats.BytesReturned >= stats.BytesScanned/10 {
			t.Fatalf("returned %d of %d scanned bytes; pushdown should shrink the wire", stats.BytesReturned, stats.BytesScanned)
		}
		if stats.DonorCPU <= 0 {
			t.Fatal("donor CPU not charged")
		}
		// Single donor: the whole batch is one round trip per sub-batch.
		if got := c.RoundTrips - rt0; got < 1 || got > int64(len(elems)/2) {
			t.Fatalf("round trips = %d for %d elements; expected doorbell batching", got, len(elems))
		}
		var got []int64
		for _, out := range outs {
			PushRecords(out, func(rec []byte) error {
				got = append(got, int64(binary.BigEndian.Uint64(rec)))
				return nil
			})
		}
		if len(got) != 5 {
			t.Fatalf("matched rows returned = %d, want 5", len(got))
		}
	})
	k.Run(time.Minute)
}

func TestScanPushUnavailableWhenEncrypted(t *testing.T) {
	k := newKernel(t, 1)
	m := testServer(k, "m1")
	db := testServer(k, "db1")
	k.Go("x", func(p *sim.Proc) {
		pool, _ := NewPool(p, m, 1<<20, 1)
		mr, _ := pool.Acquire()
		tr := NewTransport(nic.ProtoRDMA)
		cfg := DefaultClientConfig()
		cfg.Encrypt = true
		c := NewClient(p, db, cfg)
		_, _, errs := c.ScanPush(p, tr, []PushElem{{MR: mr, Off: 0, N: 4096}}, &PushQuery{Cols: pushSchema()})
		if errs == nil || !errors.Is(errs[0], ErrPushUnavailable) {
			t.Fatalf("encrypted ScanPush errs = %v, want ErrPushUnavailable", errs)
		}
		// SMB paths have no donor compute surface either.
		smb := NewClient(p, db, DefaultClientConfig())
		_, _, errs = smb.ScanPush(p, NewTransport(nic.ProtoSMB), []PushElem{{MR: mr, Off: 0, N: 4096}}, &PushQuery{Cols: pushSchema()})
		if errs == nil || !errors.Is(errs[0], ErrPushUnavailable) {
			t.Fatalf("SMB ScanPush errs = %v, want ErrPushUnavailable", errs)
		}
	})
	k.Run(time.Minute)
}

func TestScanPushRevokedAndCorruptFailOnlyTheirElements(t *testing.T) {
	k := newKernel(t, 1)
	m1 := testServer(k, "m1")
	m2 := testServer(k, "m2")
	db := testServer(k, "db1")
	k.Go("x", func(p *sim.Proc) {
		pool1, _ := NewPool(p, m1, 1<<20, 1)
		pool2, _ := NewPool(p, m2, 1<<20, 1)
		mr1, _ := pool1.Acquire()
		mr2, _ := pool2.Acquire()
		tr := NewTransport(nic.ProtoRDMA)
		c := NewClient(p, db, DefaultClientConfig())

		var seg []byte
		for i := 0; i < 10; i++ {
			seg = AppendPushRecord(seg, pushRec(int64(i), nil), 4096)
		}
		seg = PadPushChunk(seg, 4096)
		tr.Write(p, c, mr1, 0, seg)
		pool2.RevokeAll()

		badVerify := errors.New("checksum mismatch")
		q := &PushQuery{Cols: pushSchema()}
		elems := []PushElem{
			{MR: mr1, Off: 0, N: 4096},
			{MR: mr2, Off: 0, N: 4096},
			{MR: mr1, Off: 0, N: 4096, Verify: func([]byte) ([]byte, error) { return nil, badVerify }},
		}
		outs, _, errs := c.ScanPush(p, tr, elems, q)
		if errs == nil {
			t.Fatal("expected per-element errors")
		}
		if errs[0] != nil {
			t.Fatalf("healthy element failed: %v", errs[0])
		}
		if !errors.Is(errs[1], ErrRevoked) {
			t.Fatalf("revoked element err = %v, want ErrRevoked", errs[1])
		}
		if !errors.Is(errs[2], badVerify) {
			t.Fatalf("corrupt element err = %v, want verify error", errs[2])
		}
		if outs[0] == nil || outs[1] != nil || outs[2] != nil {
			t.Fatalf("outs = %v; only element 0 should return bytes", outs)
		}
	})
	k.Run(time.Minute)
}

// A donor that fails while one sub-batch is in flight fails the elements
// of the sub-batches after it too, without evaluating memory that is
// gone.
func TestScanPushRevokedBetweenSubBatches(t *testing.T) {
	k := newKernel(t, 1)
	m := testServer(k, "m1")
	db := testServer(k, "db1")
	k.Go("x", func(p *sim.Proc) {
		pool, _ := NewPool(p, m, 1<<20, 1)
		mr, _ := pool.Acquire()
		tr := NewTransport(nic.ProtoRDMA)
		c := NewClient(p, db, ClientConfig{Schedulers: 1, SlotsPerSch: 1})

		seg := PadPushChunk(AppendPushRecord(nil, pushRec(1, nil), 4096), 4096)
		tr.Write(p, c, mr, 0, seg)
		k.Go("fail", func(p *sim.Proc) {
			p.Sleep(time.Microsecond)
			pool.RevokeAll()
		})
		elems := []PushElem{{MR: mr, Off: 0, N: 4096}, {MR: mr, Off: 0, N: 4096}}
		outs, _, errs := c.ScanPush(p, tr, elems, &PushQuery{Cols: pushSchema()})
		for i := range elems {
			if errs == nil || !errors.Is(errs[i], ErrRevoked) || outs[i] != nil {
				t.Fatalf("element %d: out %v, errs %v; want ErrRevoked", i, outs[i], errs)
			}
		}
	})
	k.Run(time.Minute)
}
