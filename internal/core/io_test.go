package core

import (
	"bytes"
	"errors"
	"runtime"
	"testing"
	"time"

	"remotedb/internal/fault"
	"remotedb/internal/sim"
	"remotedb/internal/vfs"
)

// inSim runs body as one proc of a fresh kernel and closes the kernel.
// The run is bounded so that a body that bails out before CloseAll does
// not leave the heartbeat ticking forever.
func inSim(t *testing.T, body func(p *sim.Proc)) {
	t.Helper()
	k := newKernel(t, 1)
	k.Go("t", body)
	k.Run(time.Hour)
}

// ReadAt/WriteAt are ReadAtV/WriteAtV of one element: same bytes, same
// counters, and the vector form never costs more round trips or virtual
// time (a framed scalar read goes block by block, so it may cost less).
func TestScalarIsVectorOfOne(t *testing.T) {
	cfgs := map[string]Config{"unframed": DefaultConfig(), "framed K=1": integrityCfg(1), "framed K=2": integrityCfg(2)}
	for name, cfg := range cfgs {
		inSim(t, func(p *sim.Proc) {
			e := newEnv(p, 4, 8, cfg)
			sf, err1 := e.fs.Create(p, "scalar", 3<<20)
			vf, err2 := e.fs.Create(p, "vector", 3<<20)
			if err1 != nil || err2 != nil {
				t.Error(name, err1, err2)
				return
			}
			sf.OpenConn(p)
			vf.OpenConn(p)
			bs := int64(BlockSize)
			ranges := []struct {
				what string
				off  int64
				n    int
			}{
				{"aligned 8K", 8 * bs, 8192},
				{"100 B inside a block", 20*bs + 300, 100},
				{"6000 B across a block boundary", 31*bs - 1000, 6000},
				{"across a stripe boundary", sf.stripeCap - 3000, 8192},
			}
			// cost runs one call and returns its round trips and virtual time.
			cost := func(call func() error) (int64, time.Duration) {
				rt, now := e.fs.Client.RoundTrips, p.Now()
				if err := call(); err != nil {
					t.Errorf("%s: %v", name, err)
				}
				return e.fs.Client.RoundTrips - rt, p.Now() - now
			}
			for i, r := range ranges {
				data := pattern(r.n, byte(i+1))
				sgot, vgot := make([]byte, r.n), make([]byte, r.n)
				srt, sdur := cost(func() error { return sf.WriteAt(p, data, r.off) })
				vrt, vdur := cost(func() error { return vf.WriteAtV(p, []vfs.Vec{{Off: r.off, Buf: data}}) })
				if vrt > srt || vdur > sdur {
					t.Errorf("%s, %s: WriteAtV of one took %d round trips / %v, WriteAt %d / %v", name, r.what, vrt, vdur, srt, sdur)
				}
				srt, sdur = cost(func() error { return sf.ReadAt(p, sgot, r.off) })
				vrt, vdur = cost(func() error { return vf.ReadAtV(p, []vfs.Vec{{Off: r.off, Buf: vgot}}) })
				if vrt > srt || vdur > sdur {
					t.Errorf("%s, %s: ReadAtV of one took %d round trips / %v, ReadAt %d / %v", name, r.what, vrt, vdur, srt, sdur)
				}
				if !bytes.Equal(sgot, data) || !bytes.Equal(vgot, data) {
					t.Errorf("%s, %s: bytes differ from what was written", name, r.what)
				}
			}
			if sf.Reads != vf.Reads || sf.Writes != vf.Writes || sf.BytesRead != vf.BytesRead || sf.Written != vf.Written {
				t.Errorf("%s: counters differ: scalar %d/%d/%d/%d, vector %d/%d/%d/%d", name,
					sf.Reads, sf.Writes, sf.BytesRead, sf.Written, vf.Reads, vf.Writes, vf.BytesRead, vf.Written)
			}
			if sf.Reads != int64(len(ranges)) || sf.BytesRead != 8192+100+6000+8192 {
				t.Errorf("%s: Reads=%d BytesRead=%d after %d reads", name, sf.Reads, sf.BytesRead, len(ranges))
			}
			e.fs.CloseAll(p)
		})
	}
}

// An unframed vector honours the deadline budget the way the scalar
// read does: it gives up at the budget, not after the donor's stall, and
// the late completion lands in rmem's private buffer.
func TestDeadlineBudgetUnframedVector(t *testing.T) {
	inSim(t, func(p *sim.Proc) {
		cfg := DefaultConfig()
		cfg.DeadlineBudget = 500 * time.Microsecond
		e := newEnv(p, 2, 8, cfg)
		f, _ := e.fs.Create(p, "f", 1<<20)
		f.OpenConn(p)
		if err := f.WriteAt(p, bytes.Repeat([]byte{7}, 4*8192), 0); err != nil {
			t.Error(err)
			return
		}
		vecs := make([]vfs.Vec, 4)
		for i := range vecs {
			vecs[i] = vfs.Vec{Off: int64(i) * 8192, Buf: bytes.Repeat([]byte{0x11}, 8192)}
		}
		start := p.Now()
		if err := f.ReadAtV(p, vecs); err != nil {
			t.Error(err)
			return
		}
		oneOp := p.Now() - start
		for _, m := range e.mems {
			m.SetServiceDelay(50 * time.Millisecond)
		}
		for i := range vecs {
			copy(vecs[i].Buf, bytes.Repeat([]byte{0x11}, 8192))
		}
		start = p.Now()
		err := f.ReadAtV(p, vecs)
		if !errors.Is(err, fault.ErrSlow) {
			t.Errorf("want an error wrapping fault.ErrSlow, got %v", err)
		}
		if el := p.Now() - start; el > cfg.DeadlineBudget+oneOp {
			t.Errorf("slow vector held the caller %v; budget %v, one op %v", el, cfg.DeadlineBudget, oneOp)
		}
		if e.fs.SlowReads != 1 {
			t.Errorf("SlowReads = %d, want 1", e.fs.SlowReads)
		}
		p.Sleep(100 * time.Millisecond) // the orphaned transfer lands
		for i := range vecs {
			if !bytes.Equal(vecs[i].Buf, bytes.Repeat([]byte{0x11}, 8192)) {
				t.Errorf("the late completion wrote into element %d", i)
			}
		}
		e.fs.CloseAll(p)
	})
}

// Serving never-written blocks costs the memset, for a vector as for a
// scalar: a free success would let a read loop spin the kernel.
func TestZeroBlockVectorAdvancesClock(t *testing.T) {
	inSim(t, func(p *sim.Proc) {
		e := newEnv(p, 2, 8, integrityCfg(1))
		f, _ := e.fs.Create(p, "f", 1<<20)
		f.OpenConn(p)
		buf := bytes.Repeat([]byte{0xEE}, 2*8192)
		start := p.Now()
		if err := f.ReadAtV(p, []vfs.Vec{{Off: 0, Buf: buf[:8192]}, {Off: 65536, Buf: buf[8192:]}}); err != nil {
			t.Error(err)
		}
		if p.Now() == start {
			t.Error("a vectored read of never-written blocks took no virtual time")
		}
		if !bytes.Equal(buf, make([]byte, len(buf))) {
			t.Error("never-written blocks did not read as zeros")
		}
		e.fs.CloseAll(p)
	})
}

// allocsPerOp returns mallocs and bytes per call of op over runs calls.
func allocsPerOp(runs int, op func()) (allocs, bytes uint64) {
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	for i := 0; i < runs; i++ {
		op()
	}
	runtime.ReadMemStats(&m1)
	return (m1.Mallocs - m0.Mallocs) / uint64(runs), (m1.TotalAlloc - m0.TotalAlloc) / uint64(runs)
}

// On a warm FS — free lists of frames, request scratch and race state
// populated — the unhedged routes allocate nothing per request, and a
// protected scalar read (hedging plus health checks) allocates only the
// Proc of each replica read it races.
func TestWarmRoutesAllocateNothing(t *testing.T) {
	inSim(t, func(p *sim.Proc) {
		framed := newEnv(p, 4, 8, integrityCfg(2))
		ff, _ := framed.fs.Create(p, "f", 1<<20)
		ff.OpenConn(p)
		if err := ff.WriteAt(p, pattern(1<<20, 3), 0); err != nil {
			t.Error(err)
			return
		}
		buf := make([]byte, 16*8192)
		vecs := make([]vfs.Vec, 16)
		for i := range vecs {
			vecs[i] = vfs.Vec{Off: int64(i) * 24576, Buf: buf[i*8192 : (i+1)*8192]}
		}
		plain := newEnv(p, 2, 8, DefaultConfig())
		pf, _ := plain.fs.Create(p, "f", 1<<20)
		pf.OpenConn(p)
		prot := newEnv(p, 4, 8, protectedCfg())
		hf, _ := prot.fs.Create(p, "f", 1<<20)
		hf.OpenConn(p)
		if err := hf.WriteAt(p, pattern(1<<20, 5), 0); err != nil {
			t.Error(err)
			return
		}
		// raced counts the replica reads the protected FS has spawned.
		raced := func() uint64 { return uint64(prot.fs.TolerantReads + prot.fs.HedgedReads) }
		hoff := int64(0)
		routes := map[string]struct {
			op     func()
			spawns func() uint64 // procs the route spawns; nil for none
		}{
			"framed ReadAtV 16x8K":  {op: func() { ff.ReadAtV(p, vecs) }},
			"framed K=2 WriteAt 8K": {op: func() { ff.WriteAt(p, buf[:8192], 65536) }},
			"unframed ReadAt 8K":    {op: func() { pf.ReadAt(p, buf[:8192], 65536) }},
			"protected ReadAt 8K": {op: func() {
				if err := hf.ReadAt(p, buf[:8192], hoff); err != nil {
					t.Error(err)
				}
				hoff = (hoff + 8192) % (1 << 20)
			}, spawns: raced},
		}
		for name, r := range routes {
			r.op() // warm the free lists
			var before uint64
			if r.spawns != nil {
				before = r.spawns()
			}
			const runs = 100
			allocs, bytes := allocsPerOp(runs, r.op)
			want := uint64(0)
			if r.spawns != nil {
				want = (r.spawns() - before + runs - 1) / runs
				if want == 0 {
					t.Errorf("%s: spawned no race child", name)
				}
			}
			if allocs > want {
				t.Errorf("%s: %d allocs / %d B per op on a warm FS, want at most %d (one Proc per raced replica read)", name, allocs, bytes, want)
			}
		}
		framed.fs.CloseAll(p)
		plain.fs.CloseAll(p)
		prot.fs.CloseAll(p)
	})
}

// A request that fails mid-way hands back every frame it took and its
// scratch: the free lists are as long after it as before.
func TestFailedVectorReturnsFramesAndScratch(t *testing.T) {
	vec16 := func() []vfs.Vec {
		vecs := make([]vfs.Vec, 16)
		for i := range vecs {
			vecs[i] = vfs.Vec{Off: int64(i) * 8192, Buf: make([]byte, 8192)}
		}
		return vecs
	}
	// held runs call, which must fail with an error wrapping want, and
	// checks the free lists around it.
	held := func(t *testing.T, fs *FS, want error, call func() error) {
		t.Helper()
		frames, scratches := len(fs.frames), len(fs.scratches)
		if err := call(); !errors.Is(err, want) {
			t.Errorf("err = %v, want one wrapping %v", err, want)
		}
		if len(fs.frames) != frames || len(fs.scratches) != scratches {
			t.Errorf("free lists went from %d frames / %d scratches to %d / %d over a failed request",
				frames, scratches, len(fs.frames), len(fs.scratches))
		}
	}
	t.Run("poisoned block in the middle", func(t *testing.T) {
		inSim(t, func(p *sim.Proc) {
			e := newEnv(p, 2, 8, integrityCfg(1))
			f, _ := e.fs.Create(p, "f", 1<<20)
			f.OpenConn(p)
			f.WriteAt(p, pattern(16*8192, 1), 0)
			vecs := vec16()
			if err := f.ReadAtV(p, vecs); err != nil { // warm
				t.Error(err)
			}
			f.poisoned = map[int64]bool{17: true}
			held(t, e.fs, vfs.ErrCorrupt, func() error { return f.ReadAtV(p, vecs) })
			e.fs.CloseAll(p)
		})
	})
	t.Run("MR revoked mid-batch", func(t *testing.T) {
		inSim(t, func(p *sim.Proc) {
			cfg := integrityCfg(1)
			cfg.Recover = false
			e := newEnv(p, 2, 8, cfg)
			f, _ := e.fs.Create(p, "f", 1<<20)
			f.OpenConn(p)
			f.WriteAt(p, pattern(16*8192, 1), 0)
			vecs := vec16()
			if err := f.ReadAtV(p, vecs); err != nil { // warm
				t.Error(err)
			}
			p.Kernel().Go("revoker", func(rp *sim.Proc) {
				rp.Sleep(5 * time.Microsecond) // the batch is on the wire
				e.b.Revoke(f.LeaseIDs()[0])
			})
			held(t, e.fs, vfs.ErrUnavailable, func() error { return f.ReadAtV(p, vecs) })
			e.fs.CloseAll(p)
		})
	})
	t.Run("write with zero surviving replicas", func(t *testing.T) {
		inSim(t, func(p *sim.Proc) {
			e := newEnv(p, 4, 8, integrityCfg(2))
			f, _ := e.fs.Create(p, "f", 2<<20)
			f.OpenConn(p)
			// Stripe 1 first, then stripe 0: the request fails holding a
			// sealed frame.
			vecs := []vfs.Vec{{Off: f.stripeCap, Buf: pattern(8192, 1)}, {Off: 0, Buf: pattern(8192, 2)}}
			if err := f.WriteAtV(p, vecs); err != nil { // warm
				t.Error(err)
			}
			e.b.Revoke(f.leases[0][0].ID)
			e.b.Revoke(f.leases[0][1].ID)
			held(t, e.fs, vfs.ErrUnavailable, func() error { return f.WriteAtV(p, vecs) })
			e.fs.CloseAll(p)
		})
	})
}

// A replica rebuilt while a writer rewrites its stripe must come up with
// every write that landed during the copy: after the swap each written
// block verifies on both replicas read directly, and a full read of the
// stripe finds nothing to repair.
func TestReplicaRebuildKeepsConcurrentWrites(t *testing.T) {
	inSim(t, func(p *sim.Proc) {
		e := newEnv(p, 3, 8, integrityCfg(2))
		bs := BlockSize
		const blocks = 128
		f, _ := e.fs.Create(p, "f", blocks*int64(bs))
		f.OpenConn(p)
		oracle := pattern(blocks*bs, 1)
		if err := f.WriteAt(p, oracle, 0); err != nil {
			t.Error(err)
			return
		}
		e.b.Revoke(f.LeaseIDs()[0]) // the rebuild of replica 0 starts now
		for i := 0; f.Degraded(); i++ {
			g := (i * 37) % blocks
			fresh := pattern(bs, byte(i))
			if err := f.WriteAt(p, fresh, int64(g*bs)); err != nil {
				t.Errorf("write %d during the rebuild: %v", i, err)
				return
			}
			copy(oracle[g*bs:], fresh)
			p.Sleep(20 * time.Microsecond) // slower than the copy: the passes converge
		}
		if e.fs.ReplicaRepairs != 1 {
			t.Errorf("ReplicaRepairs = %d, want 1", e.fs.ReplicaRepairs)
		}
		for g := 0; g < blocks; g++ {
			for r := 0; r < f.Replicas(); r++ {
				fr := f.SnapshotBlockFrame(g, r)
				if err := verifyFrame(fr, f.gens[g]); err != nil {
					t.Errorf("block %d replica %d after the swap: %v", g, r, err)
				} else if !bytes.Equal(fr[:bs], oracle[g*bs:(g+1)*bs]) {
					t.Errorf("block %d replica %d differs from the oracle", g, r)
				}
			}
		}
		got := make([]byte, len(oracle))
		if err := f.ReadAt(p, got, 0); err != nil || !bytes.Equal(got, oracle) {
			t.Errorf("full read after the rebuild: err=%v, bytes match=%v", err, bytes.Equal(got, oracle))
		}
		if n := e.fs.Corruptions.N; n != 0 {
			t.Errorf("%d corruptions with no fault injected", n)
		}
		e.fs.CloseAll(p)
	})
}
