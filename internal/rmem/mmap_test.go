package rmem

import (
	"bytes"
	"runtime"
	"testing"

	"remotedb/internal/cluster"
	"remotedb/internal/hw/nic"
	"remotedb/internal/sim"
)

// TestPoolMemoryIsOffHeap pins where donor bytes live: a gigabyte of
// MRs costs the Go heap next to nothing, reads as zeros until written,
// round-trips what a client writes, and is gone once revoked.
func TestPoolMemoryIsOffHeap(t *testing.T) {
	k := newKernel(t, 1)
	cfg := cluster.DefaultConfig()
	cfg.MemoryBytes = 2 << 30
	m := cluster.NewServer(k, "m1", cfg)
	db := testServer(k, "db1")
	k.Go("setup", func(p *sim.Proc) {
		var before, after runtime.MemStats
		runtime.GC()
		runtime.ReadMemStats(&before)
		pool, err := NewPool(p, m, 16<<20, 64)
		runtime.ReadMemStats(&after)
		if err != nil {
			t.Error(err)
			return
		}
		if grew := int64(after.HeapAlloc) - int64(before.HeapAlloc); grew >= 1<<20 {
			t.Errorf("64 x 16 MiB of MRs grew the heap by %d bytes", grew)
		}
		mr, _ := pool.Acquire()
		c := NewClient(p, db, DefaultClientConfig())
		tr := NewTransport(nic.ProtoRDMA)
		got := make([]byte, 8192)
		if err := tr.Read(p, c, mr, 8<<20, got); err != nil {
			t.Error(err)
			return
		}
		if !bytes.Equal(got, make([]byte, len(got))) {
			t.Error("never-written bytes do not read as zeros")
		}
		src := bytes.Repeat([]byte{0x5A}, 8192)
		if err := tr.Write(p, c, mr, 12345, src); err != nil {
			t.Error(err)
			return
		}
		if err := tr.Read(p, c, mr, 12345, got); err != nil {
			t.Error(err)
			return
		}
		if !bytes.Equal(got, src) {
			t.Error("read does not return the written bytes")
		}
		pool.RevokeAll()
		if mr.Size() != 0 {
			t.Errorf("revoked MR size = %d", mr.Size())
		}
		if mr.InjectXOR(0, 1) || mr.InjectClobber(0, 8) || mr.InjectCopyOut(0, 8) != nil || mr.InjectCopyIn(0, src[:8]) {
			t.Error("fault injection reached a revoked MR")
		}
	})
	k.Run(0)
}
