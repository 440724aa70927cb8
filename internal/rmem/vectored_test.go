package rmem

import (
	"bytes"
	"testing"
	"time"

	"remotedb/internal/hw/nic"
	"remotedb/internal/sim"
)

func TestReadVFewerRoundTripsThanScalar(t *testing.T) {
	const pages = 16
	const pageSz = 8192
	k := newKernel(t, 1)
	m := testServer(k, "m1")
	db := testServer(k, "db1")
	k.Go("x", func(p *sim.Proc) {
		pool, _ := NewPool(p, m, pages*pageSz, 1)
		mr, _ := pool.Acquire()
		tr := NewTransport(nic.ProtoRDMA)
		c := NewClient(p, db, DefaultClientConfig())

		// Scalar: one round trip per page.
		buf := make([]byte, pageSz)
		t0 := p.Now()
		for i := 0; i < pages; i++ {
			if err := tr.Read(p, c, mr, i*pageSz, buf); err != nil {
				t.Error(err)
				return
			}
		}
		scalarTime := p.Now() - t0
		scalarRT := c.RoundTrips
		if scalarRT != pages {
			t.Errorf("scalar round trips = %d, want %d", scalarRT, pages)
		}

		// Vectored: one doorbell, one wire message to the single owner.
		vecs := make([]IOVec, pages)
		for i := range vecs {
			vecs[i] = IOVec{MR: mr, Off: i * pageSz, Buf: make([]byte, pageSz)}
		}
		t0 = p.Now()
		if errs := c.ReadV(p, tr, vecs); errs != nil {
			t.Errorf("ReadV errs = %v", errs)
			return
		}
		batchedTime := p.Now() - t0
		batchedRT := c.RoundTrips - scalarRT
		if batchedRT != 1 {
			t.Errorf("batched round trips = %d, want 1", batchedRT)
		}
		if batchedTime >= scalarTime {
			t.Errorf("batched read (%v) should beat %d scalar reads (%v)", batchedTime, pages, scalarTime)
		}
	})
	k.Run(time.Minute)
}

func TestWriteVMovesRealBytes(t *testing.T) {
	k := newKernel(t, 1)
	m := testServer(k, "m1")
	db := testServer(k, "db1")
	k.Go("x", func(p *sim.Proc) {
		pool, _ := NewPool(p, m, 1<<20, 1)
		mr, _ := pool.Acquire()
		tr := NewTransport(nic.ProtoRDMA)
		c := NewClient(p, db, DefaultClientConfig())
		var wv []IOVec
		for i := 0; i < 8; i++ {
			wv = append(wv, IOVec{MR: mr, Off: i * 4096, Buf: bytes.Repeat([]byte{byte(i + 1)}, 4096)})
		}
		if errs := c.WriteV(p, tr, wv); errs != nil {
			t.Fatalf("WriteV errs = %v", errs)
		}
		var rv []IOVec
		for i := 0; i < 8; i++ {
			rv = append(rv, IOVec{MR: mr, Off: i * 4096, Buf: make([]byte, 4096)})
		}
		if errs := c.ReadV(p, tr, rv); errs != nil {
			t.Fatalf("ReadV errs = %v", errs)
		}
		for i := range rv {
			if !bytes.Equal(rv[i].Buf, wv[i].Buf) {
				t.Errorf("element %d corrupted in vectored transfer", i)
			}
		}
	})
	k.Run(time.Minute)
}

func TestVectoredOneRoundTripPerDestination(t *testing.T) {
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
		vecs := []IOVec{
			{MR: mr1, Off: 0, Buf: make([]byte, 8192)},
			{MR: mr2, Off: 0, Buf: make([]byte, 8192)},
			{MR: mr1, Off: 8192, Buf: make([]byte, 8192)},
			{MR: mr2, Off: 8192, Buf: make([]byte, 8192)},
		}
		if errs := c.ReadV(p, tr, vecs); errs != nil {
			t.Fatalf("ReadV errs = %v", errs)
		}
		if c.RoundTrips != 2 {
			t.Errorf("round trips = %d, want 2 (one per destination server)", c.RoundTrips)
		}
	})
	k.Run(time.Minute)
}

func TestVectoredRevokedMidBatchFailsOnlyItsElements(t *testing.T) {
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
		pool2.RevokeAll()
		vecs := []IOVec{
			{MR: mr1, Off: 0, Buf: make([]byte, 4096)},
			{MR: mr2, Off: 0, Buf: make([]byte, 4096)},
			{MR: mr1, Off: 4096, Buf: make([]byte, 4096)},
		}
		errs := c.ReadV(p, tr, vecs)
		if errs == nil {
			t.Fatal("ReadV with a revoked MR should report errors")
		}
		if errs[0] != nil || errs[2] != nil {
			t.Errorf("healthy elements failed: %v, %v", errs[0], errs[2])
		}
		if errs[1] != ErrRevoked {
			t.Errorf("revoked element err = %v, want ErrRevoked", errs[1])
		}
	})
	k.Run(time.Minute)
}

func TestVectoredSubBatchRespectsStagingGeometry(t *testing.T) {
	k := newKernel(t, 1)
	m := testServer(k, "m1")
	db := testServer(k, "db1")
	k.Go("x", func(p *sim.Proc) {
		pool, _ := NewPool(p, m, 1<<20, 1)
		mr, _ := pool.Acquire()
		tr := NewTransport(nic.ProtoRDMA)
		cfg := DefaultClientConfig()
		cfg.SlotsPerSch = 4
		cfg.StagingBytes = 4 * 8192
		c := NewClient(p, db, cfg)
		vecs := make([]IOVec, 10)
		for i := range vecs {
			vecs[i] = IOVec{MR: mr, Off: i * 8192, Buf: make([]byte, 8192)}
		}
		if errs := c.ReadV(p, tr, vecs); errs != nil {
			t.Fatalf("ReadV errs = %v", errs)
		}
		// 10 elements with a 4-slot/32 KiB scheduler bound: sub-batches of
		// 4+4+2, each one wire message to the single destination.
		if c.RoundTrips != 3 {
			t.Errorf("round trips = %d, want 3 sub-batches", c.RoundTrips)
		}
	})
	k.Run(time.Minute)
}

func TestStagingContentionRecorded(t *testing.T) {
	k := newKernel(t, 1)
	m := testServer(k, "m1")
	db := testServer(k, "db1")
	var c *Client
	k.Go("x", func(p *sim.Proc) {
		pool, _ := NewPool(p, m, 1<<20, 8)
		var mrs []*MR
		for i := 0; i < 8; i++ {
			mr, _ := pool.Acquire()
			mrs = append(mrs, mr)
		}
		tr := NewTransport(nic.ProtoRDMA)
		cfg := DefaultClientConfig()
		cfg.Schedulers = 1
		cfg.SlotsPerSch = 2 // tiny slot pool so concurrent readers collide
		cfg.Mode = AccessAsync
		c = NewClient(p, db, cfg)
		for i := 0; i < 8; i++ {
			mr := mrs[i]
			k.Go("io", func(w *sim.Proc) {
				buf := make([]byte, 64<<10)
				for j := 0; j < 4; j++ {
					if err := tr.Read(w, c, mr, 0, buf); err != nil {
						t.Error(err)
						return
					}
				}
			})
		}
	})
	k.Run(time.Minute)
	if c.StagingContention.Waits == 0 || c.StagingContention.WaitTime == 0 {
		t.Errorf("contention not recorded: %+v", c.StagingContention)
	}
	if c.StagingContention.HighWater != 2 {
		t.Errorf("high water = %d, want 2 (slot capacity)", c.StagingContention.HighWater)
	}
}

// An element split into Buf and Tail is one element of the total length:
// the same bytes, virtual time, round trips and counters as the element
// read whole, on the doorbell path and the SMB path, with encryption
// priced once on the total (per part it would truncate differently).
func TestTailElementIsOneElement(t *testing.T) {
	const n, blocks = 4096 + 12, 8
	for _, proto := range []nic.Protocol{nic.ProtoRDMA, nic.ProtoSMBDirect} {
		for _, encrypt := range []bool{false, true} {
			// read runs one ReadV of blocks elements, split or whole, on a
			// fresh bed, and returns the bytes, the time and the counters.
			read := func(split bool) (got []byte, took time.Duration, counters [3]int64) {
				k := newKernel(t, 1)
				m := testServer(k, "m1")
				db := testServer(k, "db1")
				k.Go("x", func(p *sim.Proc) {
					pool, _ := NewPool(p, m, 1<<20, 1)
					mr, _ := pool.Acquire()
					cfg := DefaultClientConfig()
					cfg.Encrypt, cfg.Key = encrypt, testKey
					c := NewClient(p, db, cfg)
					tr := NewTransport(proto)
					if err := tr.Write(p, c, mr, 0, bytes.Repeat([]byte("tail-element!"), blocks*n/13+1)[:blocks*n]); err != nil {
						t.Error(err)
						return
					}
					got = make([]byte, blocks*n)
					vecs := make([]IOVec, blocks)
					for i := range vecs {
						el := got[i*n : (i+1)*n]
						vecs[i] = IOVec{MR: mr, Off: i * n, Buf: el}
						if split {
							vecs[i].Buf, vecs[i].Tail = el[:4096], el[4096:]
						}
					}
					rt, reads, start := c.RoundTrips, c.Reads, p.Now()
					if errs := c.ReadV(p, tr, vecs); errs != nil {
						t.Error(errs)
					}
					took = p.Now() - start
					counters = [3]int64{c.RoundTrips - rt, c.Reads - reads, c.BytesRead}
				})
				k.Run(time.Minute)
				return got, took, counters
			}
			wholeBytes, wholeTook, wholeCounters := read(false)
			splitBytes, splitTook, splitCounters := read(true)
			if !bytes.Equal(wholeBytes, splitBytes) {
				t.Errorf("%v, encrypt=%v: split elements read different bytes", proto, encrypt)
			}
			if wholeTook != splitTook || wholeCounters != splitCounters {
				t.Errorf("%v, encrypt=%v: split elements took %v with round trips/reads/bytes %v, whole ones %v with %v",
					proto, encrypt, splitTook, splitCounters, wholeTook, wholeCounters)
			}
		}
	}
}
