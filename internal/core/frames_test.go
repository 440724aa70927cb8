package core

import (
	"bytes"
	"runtime"
	"testing"
	"time"

	"remotedb/internal/sim"
	"remotedb/internal/vfs"
)

// A framed, replication-2, hedged 8 K ReadAt is two block reads, each
// through a frame of its own plus one per raced replica read. With the
// free list warm none of them is allocated: the whole call stays far
// below one frame's worth of bytes — within the 976 B the two races'
// procs, conds and timers cost before the routes were merged.
func TestFramedReadAllocatesNoFrame(t *testing.T) {
	k := newKernel(t, 1)
	k.Go("t", func(p *sim.Proc) {
		e := newEnv(p, 4, 8, protectedCfg())
		f, err := e.fs.Create(p, "f", 1<<20)
		if err != nil {
			t.Error(err)
			return
		}
		f.OpenConn(p)
		if err := f.WriteAt(p, pattern(1<<20, 3), 0); err != nil {
			t.Error(err)
			return
		}
		buf := make([]byte, 8192)
		off := int64(0)
		read := func() {
			if err := f.ReadAt(p, buf, off%(1<<20)); err != nil {
				t.Error(err)
			}
			off += 8192
		}
		read() // warm the free list
		if e.fs.TolerantReads == 0 {
			t.Error("reads did not take the hedged path")
		}
		const runs = 200
		var m0, m1 runtime.MemStats
		runtime.ReadMemStats(&m0)
		for i := 0; i < runs; i++ {
			read()
		}
		runtime.ReadMemStats(&m1)
		perOp := (m1.TotalAlloc - m0.TotalAlloc) / runs
		if perOp > 976 {
			t.Errorf("hedged ReadAt 8K allocates %d B/op, want at most 976 (a frame is %d bytes)", perOp, f.frameSize())
		}
		e.fs.CloseAll(p)
	})
	k.Run(0)
}

// Hedge losers outlive their race while writes of new content are in
// flight: each round reads one block of a stripe whose primary donor is
// slow (the hedge wins, the primary read stays in flight), then starts
// enough concurrent writes to drain the free list while that loser is
// still out. Had the race returned the loser's buffer with the others,
// one of the writes would be sealing and shipping a frame the loser then
// lands in. Every byte read is checked against an oracle, and at the end
// so is every replica's stored frame (a read served by the hedge never
// looks at the slow replica's copy).
func TestFrameReuseWithLateHedgeLosers(t *testing.T) {
	k := newKernel(t, 1)
	k.Go("t", func(p *sim.Proc) {
		cfg := protectedCfg()
		cfg.HealthChecks = false // keep the slow donor primary: every read of it hedges
		cfg.HedgeAfter = 30 * time.Microsecond
		cfg.HedgeRateCap = 1
		e := newEnv(p, 4, 8, cfg)
		bs := BlockSize
		f, err := e.fs.Create(p, "f", 64*int64(bs))
		if err != nil {
			t.Error(err)
			return
		}
		f.OpenConn(p)
		oracle := pattern(int(f.Size()), 1)
		if err := f.WriteAt(p, oracle, 0); err != nil {
			t.Error(err)
			return
		}
		e.mems[donorOf(t, e, f, 0)].SetServiceDelay(400 * time.Microsecond)

		buf := make([]byte, bs)
		for round := 0; round < 16; round++ {
			g := round % 8
			if err := f.ReadAt(p, buf, int64(g*bs)); err != nil {
				t.Errorf("round %d: read block %d: %v", round, g, err)
				return
			}
			if !bytes.Equal(buf, oracle[g*bs:(g+1)*bs]) {
				t.Errorf("round %d: block %d differs from the oracle", round, g)
				return
			}
			wg := sim.NewWaitGroup(k)
			for w := 0; w < 4; w++ {
				wg.Add(1)
				wb := 8 + (round*4+w)%56
				fresh := pattern(bs, byte(round*4+w))
				k.Go("writer", func(wp *sim.Proc) {
					defer wg.Done()
					if err := f.WriteAt(wp, fresh, int64(wb*bs)); err != nil {
						t.Errorf("round %d: write block %d: %v", round, wb, err)
					}
					copy(oracle[wb*bs:], fresh)
				})
			}
			wg.Wait(p)
		}
		if e.fs.HedgeWins < 16 {
			t.Errorf("%d hedge wins in 16 rounds: the scenario did not leave a loser in flight each round", e.fs.HedgeWins)
		}
		if n := e.fs.Corruptions.N; n != 0 {
			t.Errorf("%d corruptions on a fleet with no injected fault", n)
		}
		for g := 0; g < f.Blocks(); g++ {
			for r := 0; r < f.Replicas(); r++ {
				fr := f.SnapshotBlockFrame(g, r)
				if err := verifyFrame(fr, f.gens[g]); err != nil {
					t.Errorf("block %d replica %d: %v", g, r, err)
				} else if !bytes.Equal(fr[:bs], oracle[g*bs:(g+1)*bs]) {
					t.Errorf("block %d replica %d holds bytes that differ from the oracle", g, r)
				}
			}
		}
		p.Sleep(time.Millisecond) // every loser has landed
		seen := make(map[*byte]bool)
		for _, fr := range e.fs.frames {
			if seen[&fr[0]] {
				t.Fatal("a frame is on the free list twice")
			}
			seen[&fr[0]] = true
		}
		e.fs.CloseAll(p)
	})
	k.Run(0)
}

// A vector's whole-block elements land in the caller's buffers, only
// their trailers in frames, and are verified in place. One of them is
// bit-flipped on its first replica: the read still returns verified
// bytes, counts one corruption, and repairs that copy through the frame
// route. A partial-block element in the same vector takes the frame
// route from the start.
func TestWholeBlocksLandInPlace(t *testing.T) {
	inSim(t, func(p *sim.Proc) {
		e := newEnv(p, 4, 8, integrityCfg(2))
		bs := BlockSize
		f, _ := e.fs.Create(p, "f", 1<<20)
		f.OpenConn(p)
		data := pattern(1<<20, 7)
		if err := f.WriteAt(p, data, 0); err != nil {
			t.Error(err)
			return
		}
		const flipped = 6 // the block of element 2
		if !f.InjectBlockFlip(flipped, 0) {
			t.Error("injection failed")
			return
		}
		vecs := make([]vfs.Vec, 16)
		for i := range 15 {
			vecs[i] = vfs.Vec{Off: int64(3 * i * bs), Buf: bytes.Repeat([]byte{0xEE}, bs)}
		}
		const partial = 60*BlockSize + 300
		vecs[15] = vfs.Vec{Off: partial, Buf: bytes.Repeat([]byte{0xEE}, 100)}
		sc := e.fs.getScratch()
		if err := f.framedReadV(p, sc, vecs, false); err != nil {
			t.Error(err)
			return
		}
		for i, blk := range sc.blocks {
			if want := i < 15 && blk.g != flipped; blk.direct != want {
				t.Errorf("element %d (block %d): landed in place = %v, want %v", i, blk.g, blk.direct, want)
			}
		}
		e.fs.putScratch(sc)
		for i, v := range vecs {
			if !bytes.Equal(v.Buf, data[v.Off:v.Off+int64(len(v.Buf))]) {
				t.Errorf("element %d: bytes differ from what was written", i)
			}
		}
		if e.fs.Corruptions.N != 1 || e.fs.Repairs.N != 1 {
			t.Errorf("%d corruptions and %d repairs, want 1 and 1", e.fs.Corruptions.N, e.fs.Repairs.N)
		}
		if err := verifyFrame(f.SnapshotBlockFrame(flipped, 0), f.gens[flipped]); err != nil {
			t.Errorf("the flipped copy was not repaired: %v", err)
		}
		e.fs.CloseAll(p)
	})
}

// Recycled frames are not pre-zeroed: a partial write into a
// never-written block must still read back zeros around it.
func TestPartialWriteIntoFreshBlockReadsZerosAround(t *testing.T) {
	k := newKernel(t, 1)
	k.Go("t", func(p *sim.Proc) {
		e := newEnv(p, 2, 8, integrityCfg(1))
		f, err := e.fs.Create(p, "f", 1<<20)
		if err != nil {
			t.Error(err)
			return
		}
		f.OpenConn(p)
		// Dirty the free list's frames with non-zero content.
		junk := bytes.Repeat([]byte{0xEE}, 64<<10)
		if err := f.WriteAt(p, junk, 0); err != nil {
			t.Error(err)
			return
		}
		if err := f.ReadAt(p, junk, 0); err != nil {
			t.Error(err)
			return
		}
		const blk = 200 // never written
		off := int64(blk)*BlockSize + 100
		if err := f.WriteAt(p, []byte("hello"), off); err != nil {
			t.Error(err)
			return
		}
		// And the same through the vectored partial-block path.
		const vblk = 210
		voff := int64(vblk)*BlockSize + 100
		if err := f.WriteAtV(p, []vfs.Vec{{Off: voff, Buf: []byte("hello")}}); err != nil {
			t.Error(err)
			return
		}
		for _, base := range []int64{blk, vblk} {
			got := make([]byte, BlockSize)
			if err := f.ReadAt(p, got, base*BlockSize); err != nil {
				t.Error(err)
				return
			}
			want := make([]byte, BlockSize)
			copy(want[100:], "hello")
			if !bytes.Equal(got, want) {
				t.Errorf("block %d: bytes around a partial write are not zero", base)
			}
		}
		e.fs.CloseAll(p)
	})
	k.Run(0)
}

// splitBlocks keeps blocks in first-touch order and gathers every
// segment of a block however the vector orders them: ascending blocks
// take the no-search path, a lower or repeated block the scan.
func TestSplitBlocksFirstTouchOrder(t *testing.T) {
	const bs = BlockSize
	f := &File{fs: &FS{}}
	buf := make([]byte, 4*bs)
	var sc scratch
	f.splitBlocks(&sc, []vfs.Vec{
		{Off: 3 * bs, Buf: buf[:bs]},           // block 3
		{Off: 1*bs + 100, Buf: buf[:50]},       // block 1: below the maximum
		{Off: 5 * bs, Buf: buf[:2*bs]},         // blocks 5, 6
		{Off: 1*bs + 200, Buf: buf[:50]},       // block 1 again
		{Off: bs / 2, Buf: buf[:bs]},           // blocks 0 and 1
		{Off: 6*bs + bs/2, Buf: buf[:bs/2+10]}, // block 6 again (partial), then 7
	})
	blocks := sc.blocks
	type want struct {
		g       int64
		withins []int64
	}
	wants := []want{
		{3, []int64{0}},
		{1, []int64{100, 200, 0}},
		{5, []int64{0}},
		{6, []int64{0, bs / 2}},
		{0, []int64{bs / 2}},
		{7, []int64{0}},
	}
	if len(blocks) != len(wants) {
		t.Fatalf("%d blocks, want %d", len(blocks), len(wants))
	}
	for i, w := range wants {
		b := &blocks[i]
		if b.g != w.g || b.n() != len(w.withins) {
			t.Fatalf("block %d: g=%d with %d segments, want g=%d with %d", i, b.g, b.n(), w.g, len(w.withins))
		}
		for j, within := range w.withins {
			if b.seg(j).within != within {
				t.Errorf("block %d segment %d: within=%d, want %d", b.g, j, b.seg(j).within, within)
			}
		}
	}
}
