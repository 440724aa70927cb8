// The remote I/O pipeline. Every byte a File moves — scalar or vectored,
// framed or not, read, write, or the fallback of a pushed scan — takes
// the same five stages (DESIGN §14):
//
//	split   the request into per-stripe fragments (accessV) or per-block
//	        segments (splitBlocks)
//	route   each fragment to its live replicas (liveReplicas), in health
//	        order where the breaker has something to say (orderByHealth)
//	issue   one doorbell-batched vector per request (rmem ReadVWithin /
//	        ReadV / WriteV), or one raced transfer per block (raceFrame);
//	        a vector's whole blocks land in the caller's buffers
//	verify  every frame that came back, where it landed (verifyFrame,
//	        verifyParts; a no-op unframed)
//	recover what did not verify: fetchBlock fails over replica by replica,
//	        repairs the bad copies it passed, and poisons a block no
//	        replica can serve
//
// ReadAt and WriteAt are ReadAtV and WriteAtV of one element. Policy —
// integrity, replication, hedging, deadlines — is a stage here, never a
// second route.
//
// A request works out of one scratch taken from the FS free list on
// entry (transfer) and handed back, with every frame it still holds, on
// the single exit; nothing below transfer returns scratch or frames
// itself.
package core

import (
	"errors"
	"math/bits"
	"time"

	"remotedb/internal/fault"
	"remotedb/internal/hw/nic"
	"remotedb/internal/rmem"
	"remotedb/internal/sim"
	"remotedb/internal/vfs"
)

// ReadAt reads len(b) bytes at off: ReadAtV of one element.
func (f *File) ReadAt(p *sim.Proc, b []byte, off int64) error {
	one := [1]vfs.Vec{{Off: off, Buf: b}}
	return f.transfer(p, one[:], false, true)
}

// WriteAt writes b at off: WriteAtV of one element.
func (f *File) WriteAt(p *sim.Proc, b []byte, off int64) error {
	one := [1]vfs.Vec{{Off: off, Buf: b}}
	return f.transfer(p, one[:], true, true)
}

// ReadAtV reads every element of vecs in one batched transfer, verifying
// integrity frames when the FS has them enabled. On error every
// element's buffer is undefined: some may hold their bytes, others what
// they held before, and an element that covers a whole framed block may
// hold a copy that failed verification (it lands in place before it is
// checked). Callers needing to localize a failure retry per element.
func (f *File) ReadAtV(p *sim.Proc, vecs []vfs.Vec) error {
	return f.transfer(p, vecs, false, false)
}

// WriteAtV writes every element of vecs in one batched transfer, sealing
// integrity frames and fanning out to every replica when the FS has them
// enabled. Where elements overlap, the later one wins.
func (f *File) WriteAtV(p *sim.Proc, vecs []vfs.Vec) error {
	return f.transfer(p, vecs, true, false)
}

// transfer runs one request through the pipeline. scalar says it came in
// through ReadAt/WriteAt; only framedReadV looks at it.
func (f *File) transfer(p *sim.Proc, vecs []vfs.Vec, write, scalar bool) error {
	var n int64
	for _, v := range vecs {
		if err := f.check(v.Off, len(v.Buf)); err != nil {
			return err
		}
		n += int64(len(v.Buf))
	}
	sc := f.fs.getScratch()
	var err error
	switch {
	case !f.fs.Integrity:
		err = f.accessV(p, sc, vecs, write)
	case write:
		err = f.framedWriteV(p, sc, vecs)
	default:
		err = f.framedReadV(p, sc, vecs, scalar)
	}
	f.fs.putScratch(sc)
	if err != nil {
		return err
	}
	if write {
		f.Writes += int64(len(vecs))
		f.Written += n
	} else {
		f.Reads += int64(len(vecs))
		f.BytesRead += n
	}
	return nil
}

// blockSeg is the portion of one block touched by a request: the byte
// range [within, within+len(data)) of the block maps onto data, which
// aliases the caller's buffer.
type blockSeg struct {
	within int64
	data   []byte
}

// blockIO is one logical block of a request: the segments that touch it
// (nearly every block is touched once, so the first is stored inline and
// only further ones cost an allocation) and its state through the
// pipeline.
type blockIO struct {
	g     int64
	first blockSeg
	more  []blockSeg

	frame      []byte // from getFrame; putScratch returns it
	direct     bool   // read: the data landed in first.data, only the trailer in frame
	failedOver bool   // read: routed past a lost replica
	gen        uint64 // write: the generation the frame was sealed with
	wrote      int    // write: replicas the frame landed on
}

// n returns the number of segments; seg returns the i-th in touch order.
func (b *blockIO) n() int { return 1 + len(b.more) }

func (b *blockIO) seg(i int) blockSeg {
	if i == 0 {
		return b.first
	}
	return b.more[i-1]
}

// fullCover reports whether the segments, in touch order, tile [0, bs)
// with no gap and no overlap — the write needs no merge with what the
// block held.
func (b *blockIO) fullCover(bs int64) bool {
	at := int64(0)
	for i := 0; i < b.n(); i++ {
		sg := b.seg(i)
		if sg.within != at {
			return false
		}
		at += int64(len(sg.data))
	}
	return at == bs
}

// elemRef says which block (stripe, on the unframed route) and replica
// one element of the issued vector belongs to.
type elemRef struct{ block, replica int }

// scratch is the working set of one request.
type scratch struct {
	blocks []blockIO
	iov    []rmem.IOVec
	refs   []elemRef
}

// getScratch takes a request scratch off the FS free list, like
// getFrame.
func (fs *FS) getScratch() *scratch {
	if last := len(fs.scratches) - 1; last >= 0 {
		sc := fs.scratches[last]
		fs.scratches = fs.scratches[:last]
		return sc
	}
	return &scratch{}
}

// putScratch returns sc and every frame it holds. Every transfer a
// request issues is synchronous or works on private buffers
// (raceFrame, ReadVWithin), so nothing can still land in them, nor in
// the caller's buffers.
func (fs *FS) putScratch(sc *scratch) {
	for i := range sc.blocks {
		if fr := sc.blocks[i].frame; fr != nil {
			fs.putFrame(fr)
		}
	}
	clear(sc.blocks) // drop the caller's buffers
	clear(sc.iov)
	sc.blocks, sc.iov, sc.refs = sc.blocks[:0], sc.iov[:0], sc.refs[:0]
	fs.scratches = append(fs.scratches, sc)
}

// splitBlocks decomposes vecs into sc.blocks, the blocks in
// deterministic first-touch order. A block above every block seen so far
// is new without a search (sequential and sorted vectors, the common
// shapes); anything else scans the list for an earlier touch.
func (f *File) splitBlocks(sc *scratch, vecs []vfs.Vec) {
	bs := int64(BlockSize)
	maxG := int64(-1)
	for _, v := range vecs {
		b, off := v.Buf, v.Off
		for len(b) > 0 {
			g, within := off/bs, off%bs
			n := min(bs-within, int64(len(b)))
			sg := blockSeg{within: within, data: b[:n]}
			seen := -1
			if g > maxG {
				maxG = g
			} else {
				for i := range sc.blocks {
					if sc.blocks[i].g == g {
						seen = i
						break
					}
				}
			}
			if seen < 0 {
				sc.blocks = append(sc.blocks, blockIO{g: g, first: sg})
			} else {
				sc.blocks[seen].more = append(sc.blocks[seen].more, sg)
			}
			b = b[n:]
			off += n
		}
	}
}

// replicaSet is a set of replica indexes of one stripe (K <= 64). It is
// a value so that handing it between the pipeline's stages costs no
// allocation.
type replicaSet uint64

func (rs replicaSet) has(r int) bool { return rs&(1<<uint(r)) != 0 }
func (rs *replicaSet) add(r int)     { *rs |= 1 << uint(r) }

// first returns the lowest replica in the set, which must not be empty.
func (rs replicaSet) first() int { return bits.TrailingZeros64(uint64(rs)) }

// liveReplicas is the route stage: the replicas of stripe s, other than
// skip, that are up with a valid lease. A lease found expired is
// reported lost on the way (starting its repair), and failedOver says a
// replica had to be passed over — serving past it is a failover the read
// must account. The error is non-nil only when losing a replica left
// the whole file unavailable.
func (f *File) liveReplicas(p *sim.Proc, s, skip int) (live replicaSet, failedOver bool, err error) {
	now := p.Now()
	for r, l := range f.leases[s] {
		switch {
		case r == skip:
		case f.down[s][r]:
			failedOver = true
		case !l.Valid(now):
			f.replicaLost(s, r)
			if f.unavailable {
				return 0, false, vfs.ErrUnavailable
			}
			failedOver = true
		default:
			live.add(r)
		}
	}
	return live, failedOver, nil
}

// lostErr is what an access to stripe s returns when no replica can
// serve it: terminal once the file is unavailable, otherwise the
// retryable degraded-mode error.
func (f *File) lostErr(s int) error {
	if f.unavailable {
		return vfs.ErrUnavailable
	}
	return f.stripeErr(s)
}

// accessV is the unframed route (FS.Integrity off, single replica):
// every fragment of every element becomes one element of a single
// batched transfer. A fragment on a lost stripe fails the request with
// the degraded-mode error and triggers repair; a read is abandoned at
// its deadline with its bytes landing in rmem's private buffer.
func (f *File) accessV(p *sim.Proc, sc *scratch, vecs []vfs.Vec, write bool) error {
	for _, v := range vecs {
		b, off := v.Buf, v.Off
		for len(b) > 0 {
			s, within := int(off/f.mrSize), off%f.mrSize
			n := min(f.mrSize-within, int64(len(b)))
			live, _, err := f.liveReplicas(p, s, -1)
			if err != nil {
				return err
			}
			if live == 0 {
				return f.lostErr(s)
			}
			sc.iov = append(sc.iov, rmem.IOVec{MR: f.leases[s][0].MR, Off: int(within), Buf: b[:n]})
			sc.refs = append(sc.refs, elemRef{block: s})
			b = b[n:]
			off += n
		}
	}
	var errs []error
	if write {
		errs = f.fs.Client.WriteV(p, f.fs.Transport, sc.iov)
	} else {
		errs = f.fs.Client.ReadVWithin(p, f.fs.Transport, sc.iov, f.fs.opDeadline(p))
	}
	for i, err := range errs {
		switch {
		case err == nil:
			continue
		case errors.Is(err, rmem.ErrRevoked):
			f.replicaLost(sc.refs[i].block, 0)
			return f.lostErr(sc.refs[i].block)
		case !write && errors.Is(err, fault.ErrSlow):
			f.fs.SlowReads++
		}
		return err
	}
	return nil
}

// framedReadV is the integrity-mode read: poisoned blocks fail,
// never-written blocks serve zeros locally, and every remaining block's
// frame is fetched, verified, and scattered into the segments that
// touch it. In a vector, a block one segment covers whole is the
// exception: its data lands straight in that segment and only its
// trailer in the frame, so its bytes are moved once (DESIGN §14).
func (f *File) framedReadV(p *sim.Proc, sc *scratch, vecs []vfs.Vec, scalar bool) error {
	f.splitBlocks(sc, vecs)
	bs := BlockSize
	for i := range sc.blocks {
		blk := &sc.blocks[i]
		g := blk.g
		if f.poisoned[g] {
			return f.corruptErr(g)
		}
		if f.gens[g] == 0 {
			// Never written (or zeroed by a restripe): serve zeros locally.
			// The memset is charged as client CPU — a zero-cost success here
			// would let a read loop over a zeroed range spin without ever
			// yielding to the simulation clock.
			for j := 0; j < blk.n(); j++ {
				sg := blk.seg(j)
				f.fs.Client.Server.Work(p, nic.MemcpyCost(len(sg.data)))
				clear(sg.data)
			}
			continue
		}
		blk.frame = f.fs.getFrame()
		// The one difference kept between a scalar and a vector (DESIGN
		// §14): a scalar read takes its blocks through fetchBlock one at a
		// time — hedging, health scoring and deadline races live there —
		// while a vector goes out as one batch whose failed elements go to
		// fetchBlock. Deleting this branch batches scalar reads too.
		if scalar {
			if err := f.fetchBlock(p, g, &blk.frame, -1); err != nil {
				return err
			}
			continue
		}
		s, frameOff := f.blockHome(g)
		live, failedOver, err := f.liveReplicas(p, s, -1)
		if err != nil {
			return err
		}
		if live == 0 {
			return f.lostErr(s)
		}
		r := live.first()
		blk.failedOver = failedOver
		v := rmem.IOVec{MR: f.leases[s][r].MR, Off: frameOff, Buf: blk.frame}
		if blk.n() == 1 && blk.first.within == 0 && len(blk.first.data) == bs {
			v.Buf, v.Tail = blk.first.data, blk.frame[bs:]
			blk.direct = true
		}
		sc.iov = append(sc.iov, v)
		sc.refs = append(sc.refs, elemRef{block: i, replica: r})
	}
	var errs []error
	if len(sc.iov) > 0 {
		errs = f.fs.Client.ReadV(p, f.fs.Transport, sc.iov)
	}
	for i, ref := range sc.refs {
		blk := &sc.blocks[ref.block]
		var err error
		if errs != nil {
			err = errs[i]
		}
		switch {
		case err == nil:
			data := blk.frame[:bs]
			if blk.direct {
				data = blk.first.data
			}
			if verifyParts(data, blk.frame[bs:], f.gens[blk.g]) == nil {
				if blk.failedOver {
					f.fs.Failovers.Add(1, int64(bs))
				}
				continue
			}
		case errors.Is(err, rmem.ErrRevoked):
			s, _ := f.blockHome(blk.g)
			f.replicaLost(s, ref.replica)
			if f.unavailable {
				return vfs.ErrUnavailable
			}
		default:
			return err
		}
		// The batched copy did not verify: fetchBlock re-reads every
		// replica into the frame, counting the corruption, repairing the
		// bad copy or poisoning the block.
		blk.direct = false
		if err := f.fetchBlock(p, blk.g, &blk.frame, -1); err != nil {
			return err
		}
	}
	for i := range sc.blocks {
		blk := &sc.blocks[i]
		if blk.frame == nil || blk.direct {
			continue
		}
		for j := 0; j < blk.n(); j++ {
			sg := blk.seg(j)
			copy(sg.data, blk.frame[sg.within:sg.within+int64(len(sg.data))])
		}
	}
	return nil
}

// framedWriteV is the integrity-mode write: every touched block's frame
// is assembled (merging with the block's verified contents where the
// request covers it only partly), sealed with the next generation, and
// fanned out to every live replica in one batched transfer. Generations
// are committed once the batch has landed; a replica revoked mid-batch
// is failed over, and a block no replica took is an error that leaves
// its generation alone.
func (f *File) framedWriteV(p *sim.Proc, sc *scratch, vecs []vfs.Vec) error {
	f.splitBlocks(sc, vecs)
	bs := int64(BlockSize)
	for i := range sc.blocks {
		blk := &sc.blocks[i]
		g := blk.g
		blk.frame = f.fs.getFrame()
		if !blk.fullCover(bs) {
			if f.gens[g] != 0 && !f.poisoned[g] {
				if err := f.fetchBlock(p, g, &blk.frame, -1); err != nil {
					return err
				}
			} else {
				clear(blk.frame[:bs]) // nothing to merge with: zeros around the segments
			}
		}
		for j := 0; j < blk.n(); j++ {
			sg := blk.seg(j)
			copy(blk.frame[sg.within:], sg.data)
		}
		blk.gen = f.gens[g] + 1
		sealFrame(blk.frame, blk.gen)
		s, frameOff := f.blockHome(g)
		live, _, err := f.liveReplicas(p, s, -1)
		if err != nil {
			return err
		}
		if live == 0 {
			return f.lostErr(s)
		}
		for r, l := range f.leases[s] {
			if live.has(r) {
				sc.iov = append(sc.iov, rmem.IOVec{MR: l.MR, Off: frameOff, Buf: blk.frame})
				sc.refs = append(sc.refs, elemRef{block: i, replica: r})
			}
		}
	}
	errs := f.fs.Client.WriteV(p, f.fs.Transport, sc.iov)
	for i, ref := range sc.refs {
		blk := &sc.blocks[ref.block]
		switch {
		case errs == nil || errs[i] == nil:
			blk.wrote++
		case errors.Is(errs[i], rmem.ErrRevoked):
			s, _ := f.blockHome(blk.g)
			f.replicaLost(s, ref.replica)
			if f.unavailable {
				return vfs.ErrUnavailable
			}
		default:
			return errs[i]
		}
	}
	for i := range sc.blocks {
		blk := &sc.blocks[i]
		if blk.wrote == 0 {
			s, _ := f.blockHome(blk.g)
			return f.lostErr(s)
		}
		f.gens[blk.g] = blk.gen
		// A write heals poison: the block holds fresh data now (for a
		// partial write the unwritten remainder is zeros — the loss was
		// already announced via error and salvage).
		delete(f.poisoned, blk.g)
	}
	return nil
}

// fetchBlock is the recover stage, and the whole fetch of a scalar read:
// it reads block g's frame from the live replicas other than skip (the
// scrubber passes the replica it already knows is bad; -1 otherwise) in
// health order until one yields a verified copy. On an unprotected FS
// each replica is read inline; with hedging, health checks or a deadline
// in force each is raced (raceFrame) against its hedge and the
// deadline. Corrupt copies passed on the way are repaired from the
// winner; a block with no verifiable copy anywhere is poisoned. frame
// points at a pooled frame (getFrame), which a race may swap for its
// winner's; on nil return, *frame holds a verified frame.
func (f *File) fetchBlock(p *sim.Proc, g int64, frame *[]byte, skip int) error {
	s, frameOff := f.blockHome(g)
	bs := BlockSize
	live, failedOver, err := f.liveReplicas(p, s, skip)
	if err != nil {
		return err
	}
	var candBuf [4]int // K is 1 or 2 in every bed; append spills past 4
	cands := candBuf[:0]
	for r := range f.leases[s] {
		if live.has(r) {
			cands = append(cands, r)
		}
	}
	tolerant := f.fs.tailTolerant(p)
	var deadline time.Duration
	if tolerant {
		f.fs.TolerantReads++
		f.orderByHealth(s, cands, p.Now())
		deadline = f.fs.opDeadline(p)
	}
	var bad replicaSet
	for i := 0; i < len(cands); {
		winner := -1
		if !tolerant {
			r := cands[i]
			i++
			err := f.fs.Transport.Read(p, f.fs.Client, f.leases[s][r].MR, frameOff, *frame)
			if err != nil && !errors.Is(err, rmem.ErrRevoked) {
				return err
			}
			if err == nil && verifyFrame(*frame, f.gens[g]) == nil {
				winner = r
			} else if err := f.readFailed(s, r, err, &bad); err != nil {
				return err
			}
		} else {
			hedge := -1
			if f.fs.Hedging && i+1 < len(cands) {
				hedge = cands[i+1]
			}
			res := f.raceFrame(p, g, s, frameOff, frame, cands[i], hedge, deadline)
			i += res.n
			for _, c := range res.reads[:res.n] {
				if !c.done || c.r == res.winner {
					continue
				}
				failedOver = true
				if !c.verified {
					if err := f.readFailed(s, c.r, c.err, &bad); err != nil {
						return err
					}
				}
			}
			if res.winner < 0 && res.slow {
				f.fs.SlowReads++
				return f.errSlowRead(g)
			}
			winner = res.winner
		}
		if winner >= 0 {
			if failedOver {
				f.fs.Failovers.Add(1, int64(bs))
			}
			for r := range f.leases[s] {
				if bad.has(r) {
					f.repairBlockOn(p, g, r, *frame)
				}
			}
			return nil
		}
		failedOver = true
	}
	if bad != 0 {
		if f.underRepair(s) {
			// An unverifiable frame while the stripe is actively being
			// rebuilt is the rebuild's churn (half-swapped replicas,
			// salvage writes racing this read), not data loss. Degrade to
			// the retryable repair-in-progress error instead of poisoning
			// a block the repair is about to make whole.
			return f.stripeErr(s)
		}
		// Every live replica's copy failed verification: the block's
		// data is gone. Fail loudly and let salvage repopulate.
		f.poisonBlock(p, g)
		return f.corruptErr(g)
	}
	return f.lostErr(s)
}

// readFailed accounts one replica read that produced no verified frame:
// a revoked region loses the replica, a frame that came back but does
// not verify (err == nil) is a corruption to repair from the winner;
// any other error just moves the fetch on. It returns an error only when
// losing the replica left the file unavailable.
func (f *File) readFailed(s, r int, err error, bad *replicaSet) error {
	switch {
	case err == nil:
		f.fs.Corruptions.Add(1, BlockSize)
		bad.add(r)
	case errors.Is(err, rmem.ErrRevoked):
		f.replicaLost(s, r)
		if f.unavailable {
			return vfs.ErrUnavailable
		}
	}
	return nil
}

var (
	_ vfs.File       = (*File)(nil)
	_ vfs.VectorFile = (*File)(nil)
)
