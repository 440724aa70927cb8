// Vectored scatter-gather I/O over remote files. ReadAtV/WriteAtV split
// a vector of (offset, buffer) elements across stripes and replicas and
// push everything through the rmem layer's doorbell-batched ReadV/WriteV,
// so a multi-page transfer pays one charged round trip per destination
// server instead of one per page. The framed (integrity) path batches
// the happy case — each block's frame fetched from its first healthy
// replica, writes fanned out to all of them — and falls back to the
// scalar verify-and-fail-over machinery for any element that does not
// come back verified, so the integrity guarantees are byte-for-byte the
// same as ReadAt/WriteAt.
package core

import (
	"errors"
	"sort"

	"remotedb/internal/rmem"
	"remotedb/internal/sim"
	"remotedb/internal/vfs"
)

// ReadAtV reads every element of vecs, batching the underlying
// transfers. Partial completion is possible on error, as with a scalar
// loop; callers needing to localize a failure retry per element.
func (f *File) ReadAtV(p *sim.Proc, vecs []vfs.Vec) error {
	for _, v := range vecs {
		if err := f.check(v.Off, len(v.Buf)); err != nil {
			return err
		}
	}
	var err error
	if f.fs.Integrity {
		err = f.framedReadV(p, vecs)
	} else {
		err = f.accessV(p, vecs, false)
	}
	if err == nil {
		for _, v := range vecs {
			f.BytesRead += int64(len(v.Buf))
		}
	}
	return err
}

// WriteAtV writes every element of vecs, batching the underlying
// transfers. Elements must not overlap (overlapping segments of a block
// degrade to sequential scalar writes).
func (f *File) WriteAtV(p *sim.Proc, vecs []vfs.Vec) error {
	for _, v := range vecs {
		if err := f.check(v.Off, len(v.Buf)); err != nil {
			return err
		}
	}
	var err error
	if f.fs.Integrity {
		err = f.framedWriteV(p, vecs)
	} else {
		err = f.accessV(p, vecs, true)
	}
	if err == nil {
		for _, v := range vecs {
			f.Written += int64(len(v.Buf))
		}
	}
	return err
}

// accessV is the unframed vectored path: every fragment of every element
// becomes one scatter-gather element of a single batched transfer. A
// revoked fragment triggers the same degraded-mode transition as the
// scalar path.
func (f *File) accessV(p *sim.Proc, vecs []vfs.Vec, write bool) error {
	var iov []rmem.IOVec
	var stripes []int // stripe of each iov element, for failover accounting
	for vi := range vecs {
		b := vecs[vi].Buf
		off := vecs[vi].Off
		for len(b) > 0 {
			idx := off / f.mrSize
			within := off % f.mrSize
			n := f.mrSize - within
			if n > int64(len(b)) {
				n = int64(len(b))
			}
			if f.down[idx][0] {
				return f.stripeErr(int(idx))
			}
			l := f.leases[idx][0]
			if !l.Valid(p.Now()) {
				f.replicaLost(int(idx), 0)
				if f.unavailable {
					return vfs.ErrUnavailable
				}
				return f.stripeErr(int(idx))
			}
			iov = append(iov, rmem.IOVec{MR: l.MR, Off: int(within), Buf: b[:n]})
			stripes = append(stripes, int(idx))
			b = b[n:]
			off += n
		}
	}
	var errs []error
	if write {
		errs = f.fs.Client.WriteV(p, f.fs.Transport, iov)
	} else {
		errs = f.fs.Client.ReadV(p, f.fs.Transport, iov)
	}
	for i, err := range errs {
		if err == nil {
			continue
		}
		if errors.Is(err, rmem.ErrRevoked) {
			f.replicaLost(stripes[i], 0)
			if f.unavailable {
				return vfs.ErrUnavailable
			}
			return f.stripeErr(stripes[i])
		}
		return err
	}
	if write {
		f.Writes += int64(len(vecs))
	} else {
		f.Reads += int64(len(vecs))
	}
	return nil
}

// blockSeg is the portion of one block touched by a vector: the byte
// range [within, within+len(data)) of the block maps onto data, which
// aliases the caller's buffer.
type blockSeg struct {
	within int64
	data   []byte
}

// blockSegs is one logical block and the segments of a vector that
// touch it. Nearly every block is touched once, so the first segment is
// stored inline and only further ones cost an allocation.
type blockSegs struct {
	g     int64
	first blockSeg
	more  []blockSeg
}

// n returns the number of segments; seg returns the i-th in touch order.
func (b *blockSegs) n() int { return 1 + len(b.more) }

func (b *blockSegs) seg(i int) blockSeg {
	if i == 0 {
		return b.first
	}
	return b.more[i-1]
}

// splitBlocks decomposes vecs into per-block segments, the blocks in
// deterministic first-touch order. A block above every block seen so far
// is new without a search (sequential and sorted vectors, the common
// shapes); anything else scans the list for an earlier touch.
func (f *File) splitBlocks(vecs []vfs.Vec) []blockSegs {
	bs := int64(f.fs.BlockSize)
	most := 0 // an unaligned element touches one block more than it spans
	for _, v := range vecs {
		most += int((int64(len(v.Buf))+bs-1)/bs) + 1
	}
	blocks := make([]blockSegs, 0, most)
	maxG := int64(-1)
	for _, v := range vecs {
		b := v.Buf
		off := v.Off
		for len(b) > 0 {
			g := off / bs
			within := off % bs
			n := bs - within
			if n > int64(len(b)) {
				n = int64(len(b))
			}
			sg := blockSeg{within: within, data: b[:n]}
			seen := -1
			if g > maxG {
				maxG = g
			} else {
				for i := range blocks {
					if blocks[i].g == g {
						seen = i
						break
					}
				}
			}
			if seen < 0 {
				blocks = append(blocks, blockSegs{g: g, first: sg})
			} else {
				blocks[seen].more = append(blocks[seen].more, sg)
			}
			b = b[n:]
			off += n
		}
	}
	return blocks
}

// pickReplica returns the first replica of stripe s that is up with a
// valid lease, reporting whether an earlier replica had to be skipped
// over an invalid lease (a failover the read must account). It returns
// -1 when no replica qualifies.
func (f *File) pickReplica(p *sim.Proc, s int) (int, bool, error) {
	failedOver := false
	for r := range f.leases[s] {
		if f.down[s][r] {
			// Marked lost already (revoke-watch or an earlier access):
			// serving past it is a failover all the same.
			failedOver = true
			continue
		}
		if !f.leases[s][r].Valid(p.Now()) {
			f.replicaLost(s, r)
			if f.unavailable {
				return -1, false, vfs.ErrUnavailable
			}
			failedOver = true
			continue
		}
		return r, failedOver, nil
	}
	return -1, failedOver, nil
}

// framedReadV is the integrity-mode vectored read: poisoned blocks fail,
// never-written blocks serve zeros locally, and every remaining block
// joins one batched fetch from its first healthy replica. Elements that
// come back unverified (corruption, a revocation mid-batch) are retried
// through the scalar fetchBlock, which owns failover, in-place repair,
// and poisoning — so detection and repair semantics are identical to the
// scalar path.
func (f *File) framedReadV(p *sim.Proc, vecs []vfs.Vec) error {
	blocks := f.splitBlocks(vecs)
	type fetch struct {
		blk        *blockSegs
		replica    int
		failedOver bool
		frame      []byte
	}
	fetches := make([]fetch, 0, len(blocks))
	iov := make([]rmem.IOVec, 0, len(blocks))
	// Every frame is back on the free list on return: ReadV and the
	// scalar refetch are synchronous, so nothing outlives this call.
	defer func() {
		for i := range fetches {
			f.fs.putFrame(fetches[i].frame)
		}
	}()
	for i := range blocks {
		blk := &blocks[i]
		g := blk.g
		if f.poisoned[g] {
			return f.corruptErr(g)
		}
		if f.gens[g] == 0 {
			for i := 0; i < blk.n(); i++ {
				clear(blk.seg(i).data)
			}
			continue
		}
		s, frameOff := f.blockHome(g)
		r, failedOver, err := f.pickReplica(p, s)
		if err != nil {
			return err
		}
		if r < 0 {
			if f.unavailable {
				return vfs.ErrUnavailable
			}
			return f.stripeErr(s)
		}
		frame := f.fs.getFrame()
		fetches = append(fetches, fetch{blk: blk, replica: r, failedOver: failedOver, frame: frame})
		iov = append(iov, rmem.IOVec{MR: f.leases[s][r].MR, Off: frameOff, Buf: frame})
	}
	var errs []error
	if len(iov) > 0 {
		errs = f.fs.Client.ReadV(p, f.fs.Transport, iov)
	}
	for i := range fetches {
		ft := &fetches[i]
		g := ft.blk.g
		var elemErr error
		if errs != nil {
			elemErr = errs[i]
		}
		verified := false
		switch {
		case elemErr == nil:
			if verifyFrame(ft.frame, f.fs.BlockSize, f.gens[g]) == nil {
				verified = true
				if ft.failedOver {
					f.fs.Failovers.Add(1, int64(f.fs.BlockSize))
				}
			}
		case errors.Is(elemErr, rmem.ErrRevoked):
			s, _ := f.blockHome(g)
			f.replicaLost(s, ft.replica)
			if f.unavailable {
				return vfs.ErrUnavailable
			}
		default:
			return elemErr
		}
		if !verified {
			// The batched copy did not verify: the scalar fetch re-reads
			// every replica, counting the corruption, repairing the bad
			// copy or poisoning the block exactly as a scalar read would.
			if err := f.fetchBlock(p, g, ft.frame); err != nil {
				return err
			}
		}
		for j := 0; j < ft.blk.n(); j++ {
			sg := ft.blk.seg(j)
			copy(sg.data, ft.frame[sg.within:sg.within+int64(len(sg.data))])
		}
	}
	f.Reads += int64(len(vecs))
	return nil
}

// fullCover reports whether the block's segments tile [0, bs) exactly
// once, with no gap and no overlap.
func (b *blockSegs) fullCover(bs int64) bool {
	if len(b.more) == 0 {
		return b.first.within == 0 && int64(len(b.first.data)) == bs
	}
	sorted := append([]blockSeg{b.first}, b.more...)
	sort.Slice(sorted, func(i, j int) bool { return sorted[i].within < sorted[j].within })
	at := int64(0)
	for _, sg := range sorted {
		if sg.within != at {
			return false
		}
		at += int64(len(sg.data))
	}
	return at == bs
}

// framedWriteV is the integrity-mode vectored write: blocks fully
// covered by the vector are sealed and fanned out to every healthy
// replica in one batched transfer; partial or overlapping blocks take
// the scalar read-merge-write path. A replica revoked mid-batch fails
// over like the scalar path; a block with zero surviving writes is an
// error and its generation is not bumped.
func (f *File) framedWriteV(p *sim.Proc, vecs []vfs.Vec) error {
	bs := int64(f.fs.BlockSize)
	blocks := f.splitBlocks(vecs)
	type blockWrite struct {
		g      int64
		newGen uint64
		wrote  int
		frame  []byte
	}
	bws := make([]blockWrite, 0, len(blocks))
	var iov []rmem.IOVec
	var iovBW []int // index into bws of each iov element
	var iovRep []int
	// WriteV is synchronous: once this call returns no transfer still
	// reads a frame.
	defer func() {
		for i := range bws {
			f.fs.putFrame(bws[i].frame)
		}
	}()
	for i := range blocks {
		blk := &blocks[i]
		g := blk.g
		if !blk.fullCover(bs) {
			for j := 0; j < blk.n(); j++ {
				seg := blk.seg(j)
				if err := f.writeBlock(p, g, seg.within, seg.data); err != nil {
					return err
				}
			}
			continue
		}
		frame := f.fs.getFrame()
		for j := 0; j < blk.n(); j++ {
			seg := blk.seg(j)
			copy(frame[seg.within:seg.within+int64(len(seg.data))], seg.data)
		}
		bws = append(bws, blockWrite{g: g, newGen: f.gens[g] + 1, frame: frame})
		bw := len(bws) - 1
		sealFrame(frame, int(bs), bws[bw].newGen)
		s, frameOff := f.blockHome(g)
		issued := 0
		for r := range f.leases[s] {
			if f.down[s][r] {
				continue
			}
			l := f.leases[s][r]
			if !l.Valid(p.Now()) {
				f.replicaLost(s, r)
				if f.unavailable {
					return vfs.ErrUnavailable
				}
				continue
			}
			iov = append(iov, rmem.IOVec{MR: l.MR, Off: frameOff, Buf: frame})
			iovBW = append(iovBW, bw)
			iovRep = append(iovRep, r)
			issued++
		}
		if issued == 0 {
			if f.unavailable {
				return vfs.ErrUnavailable
			}
			return f.stripeErr(s)
		}
	}
	if len(iov) > 0 {
		errs := f.fs.Client.WriteV(p, f.fs.Transport, iov)
		for i := range iov {
			var err error
			if errs != nil {
				err = errs[i]
			}
			if err == nil {
				bws[iovBW[i]].wrote++
				continue
			}
			if errors.Is(err, rmem.ErrRevoked) {
				s, _ := f.blockHome(bws[iovBW[i]].g)
				f.replicaLost(s, iovRep[i])
				if f.unavailable {
					return vfs.ErrUnavailable
				}
				continue
			}
			return err
		}
	}
	for i := range bws {
		bw := &bws[i]
		if bw.wrote == 0 {
			s, _ := f.blockHome(bw.g)
			if f.unavailable {
				return vfs.ErrUnavailable
			}
			return f.stripeErr(s)
		}
		f.gens[bw.g] = bw.newGen
		delete(f.poisoned, bw.g)
	}
	f.Writes += int64(len(vecs))
	return nil
}

var _ vfs.VectorFile = (*File)(nil)
