// Remote-block integrity, K-way replica failover, and the background
// scrubber — the silent-failure defense layer of the file API.
//
// The paper's best-effort contract (§4.1.5) only covers *announced*
// failures: a revoked lease returns an error, so no correctness can
// depend on remote memory. A bit flip on the donor, a torn RDMA write,
// or a resurrected stale buffer, however, is served back silently. With
// FS.Integrity on, every logical block of BlockSize bytes is stored as a
// frame
//
//	[ BlockSize data | 4-byte CRC-32C | 8-byte generation ]
//
// sealed on write and verified on read. The CRC covers data plus
// generation; the expected generation per block lives client-side (a
// block's generation counts its writes, 0 = never written, served as
// zeros without touching the wire), so a stale-but-internally-consistent
// frame is caught by the generation stamp even though its checksum
// matches.
//
// Frame buffers are recycled through one free list per FS (getFrame /
// putFrame), so a block read or write allocates nothing once the list is
// warm. Ownership: whoever finishes with a frame last returns it — a
// request's frames go back with its scratch (io.go), and a raced read's
// child (health.go), which may still be in flight when its race
// returns, hands its buffer back itself on completion, so a late
// completion can never land in a frame that was re-issued. Recycled
// frames are not zeroed: a path that does not overwrite the whole data
// area clears it.
//
// With FS.Replication = K > 1, Create leases K MRs per stripe on
// distinct donors (broker anti-affinity), writes fan out to every
// healthy replica, and reads verify-then-fail-over: a corrupt or revoked
// replica is skipped, the block is served from a healthy one, and the
// bad copy is rewritten in place (corruption) or the whole replica
// rebuilt from a peer by a background process (revocation) — no salvage
// callback, no degraded window. Only when every replica of a stripe is
// gone does the legacy restripe+salvage path of core.go run.
//
// A block with no verifiable copy anywhere is poisoned: reads fail with
// vfs.ErrCorrupt (never silent wrong bytes), the salvage callback is
// invoked for the block range, and any full overwrite heals it.
//
// FS.ScrubEvery starts a per-file scrubber that sweeps one stripe per
// tick, reading every written frame of every replica through the normal
// transport (the bandwidth cost is real), repairing latent corruption
// from a good copy, and re-kicking replica rebuilds that failed earlier.
package core

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"

	"remotedb/internal/broker"
	"remotedb/internal/rmem"
	"remotedb/internal/sim"
	"remotedb/internal/vfs"
)

// BlockSize is the integrity block granularity: half an 8 KiB
// database page, so page I/O stays frame-aligned.
const BlockSize = 4096

// trailerSize is the per-block overhead: CRC-32C + generation.
const trailerSize = 4 + 8

var castagnoli = crc32.MakeTable(crc32.Castagnoli)

// StripeCapacity returns the logical bytes one MR of mrBytes holds once
// each blockSize block is framed with its trailer (blockSize <= 0 means
// BlockSize). Sizing helpers use it to translate file sizes into
// MR counts.
func StripeCapacity(mrBytes, blockSize int) int64 {
	if blockSize <= 0 {
		blockSize = BlockSize
	}
	return int64(mrBytes/(blockSize+trailerSize)) * int64(blockSize)
}

// sealFrame stamps gen and the CRC-32C over data+generation into the
// frame's trailer.
func sealFrame(frame []byte, gen uint64) {
	binary.LittleEndian.PutUint64(frame[BlockSize+4:BlockSize+trailerSize], gen)
	crc := crc32.Checksum(frame[:BlockSize], castagnoli)
	crc = crc32.Update(crc, castagnoli, frame[BlockSize+4:BlockSize+trailerSize])
	binary.LittleEndian.PutUint32(frame[BlockSize:BlockSize+4], crc)
}

// Integrity-verification failure flavors (both are "corrupt" to
// callers; the distinction matters only for diagnostics).
var (
	errChecksum = errors.New("checksum mismatch")
	errStale    = errors.New("generation mismatch (stale or torn frame)")
)

// verifyFrame checks the trailer against the data and the expected
// generation.
func verifyFrame(frame []byte, wantGen uint64) error {
	return verifyParts(frame[:BlockSize], frame[BlockSize:], wantGen)
}

// verifyParts is verifyFrame of a frame held in two parts: the block's
// data and its trailer.
func verifyParts(data, trailer []byte, wantGen uint64) error {
	crc := crc32.Checksum(data, castagnoli)
	crc = crc32.Update(crc, castagnoli, trailer[4:trailerSize])
	if crc != binary.LittleEndian.Uint32(trailer[:4]) {
		return errChecksum
	}
	if got := binary.LittleEndian.Uint64(trailer[4:trailerSize]); got != wantGen {
		return errStale
	}
	return nil
}

func (f *File) frameSize() int { return BlockSize + trailerSize }

// getFrame takes a frame buffer off the FS free list (contents
// undefined), allocating only when the list is empty. A plain slice
// stack: the simulation runs one proc at a time.
func (fs *FS) getFrame() []byte {
	if last := len(fs.frames) - 1; last >= 0 {
		fr := fs.frames[last]
		fs.frames = fs.frames[:last]
		return fr
	}
	return make([]byte, BlockSize+trailerSize)
}

// putFrame returns a frame nothing references any more.
func (fs *FS) putFrame(fr []byte) { fs.frames = append(fs.frames, fr) }

// framesPerStripe returns how many framed blocks one stripe holds.
func (f *File) framesPerStripe() int64 { return f.stripeCap / BlockSize }

// blockHome locates logical block g: its stripe and the frame's byte
// offset within each replica MR.
func (f *File) blockHome(g int64) (s int, frameOff int) {
	fps := f.framesPerStripe()
	return int(g / fps), int(g%fps) * f.frameSize()
}

// stripeBlockRange returns the half-open logical block range [lo, hi)
// stored in stripe s.
func (f *File) stripeBlockRange(s int) (lo, hi int64) {
	fps := f.framesPerStripe()
	lo = int64(s) * fps
	hi = lo + fps
	if n := int64(len(f.gens)); hi > n {
		hi = n
	}
	return lo, hi
}

func (f *File) corruptErr(g int64) error {
	return fmt.Errorf("core: block %d of %q failed integrity verification: %w", g, f.name, vfs.ErrCorrupt)
}

// repairBlockOn rewrites block g's frame on replica r from a verified
// good copy (in-place corruption repair).
func (f *File) repairBlockOn(p *sim.Proc, g int64, r int, goodFrame []byte) {
	s, frameOff := f.blockHome(g)
	if live, _, _ := f.liveReplicas(p, s, -1); !live.has(r) {
		return // lost since it was read; it is being rebuilt wholesale
	}
	err := f.fs.Transport.Write(p, f.fs.Client, f.leases[s][r].MR, frameOff, goodFrame)
	if errors.Is(err, rmem.ErrRevoked) {
		f.replicaLost(s, r)
		return
	}
	if err == nil {
		f.fs.Repairs.Add(1, BlockSize)
	}
}

// poisonBlock marks block g as having no verifiable copy: reads fail
// with vfs.ErrCorrupt until a write replaces the data. The salvage
// callback is invoked for the block range (same contract as a lost
// stripe, at block granularity).
func (f *File) poisonBlock(p *sim.Proc, g int64) {
	if f.poisoned == nil {
		f.poisoned = make(map[int64]bool)
	}
	if f.poisoned[g] {
		return
	}
	f.poisoned[g] = true
	if f.salvage == nil || !f.fs.Recover {
		return
	}
	off := g * BlockSize
	n := int64(BlockSize)
	if off+n > f.size {
		n = f.size - off
	}
	name := fmt.Sprintf("block-salvage:%s:%d", f.name, g)
	p.Kernel().Go(name, func(sp *sim.Proc) {
		if f.closed || f.deleted || f.unavailable {
			return
		}
		if err := f.salvage(sp, f, off, n); err == nil {
			f.fs.Salvages++
		}
	})
}

// repairReplica rebuilds one lost replica of stripe s: lease a
// replacement MR on a donor not already backing the stripe
// (anti-affinity), copy every written block from the surviving replicas
// through the verified read path, and swap it in. No salvage callback
// runs and the file never stops serving — this is the replicated
// counterpart of repairStripe. On failure the stripe simply stays at a
// reduced replication factor; the scrubber re-kicks the rebuild later.
func (f *File) repairReplica(p *sim.Proc, s, r int) {
	defer func() { f.repairing[s][r] = false }()
	avoid := make(map[string]bool)
	for r2, l := range f.leases[s] {
		if r2 != r && !f.down[s][r2] {
			avoid[l.MR.Owner.Name] = true
		}
	}
	got, err := f.fs.requestAvoiding(p, 1, avoid)
	if f.closed || f.deleted || f.unavailable {
		if err == nil {
			f.fs.Broker.Release(p, got[0])
		}
		return
	}
	if err != nil {
		return
	}
	l := got[0]
	if int64(l.MR.Size()) != f.mrSize {
		f.fs.Broker.Release(p, l)
		return
	}
	f.connect(p, l.MR.Owner.Name)
	if err := f.copyStripeTo(p, s, l); err != nil {
		f.fs.Broker.Release(p, l)
		return
	}
	if f.closed || f.deleted {
		f.fs.Broker.Release(p, l)
		return
	}
	f.leases[s][r] = l
	f.down[s][r] = false
	f.fs.ReplicaRepairs++
}

// copyStripeTo copies every written, unpoisoned frame of stripe s onto
// the replacement lease, reading through the verified path (so a
// corrupt surviving copy is caught, not propagated) and writing in runs
// to amortize transport overhead. Writers skip a replica that is down,
// so a block written after its copy would be stale on the replacement:
// the generation each block had when copied is recorded, and passes over
// the blocks whose generation has moved since repeat until one finds
// nothing to copy. That last pass does no I/O, so the caller's swap
// follows it with no yield in between. A writer dirtying blocks as fast
// as the copy moves them would keep the rebuild from ever finishing, so
// the passes are bounded; what is still stale after the last one is
// caught by verification and repaired from the peer.
func (f *File) copyStripeTo(p *sim.Proc, s int, dst *broker.Lease) error {
	lo, hi := f.stripeBlockRange(s)
	bs := BlockSize
	fsz := int64(f.frameSize())
	const maxRun, maxPasses = 32, 8
	runBuf := make([]byte, maxRun*fsz)
	fr := f.fs.getFrame() // fetchBlock's frame; each fetch is copied into runBuf
	defer func() { f.fs.putFrame(fr) }()
	copied := make([]uint64, hi-lo) // generation of the copy on dst, 0 = none
	stale := func(g int64) bool {
		return g < hi && f.gens[g] != copied[g-lo] && !f.poisoned[g]
	}
	for pass, moved := 0, true; moved && pass < maxPasses; pass++ {
		moved = false
		for g := lo; g < hi; g++ {
			if f.closed || f.deleted || f.unavailable {
				return nil
			}
			if !stale(g) {
				continue
			}
			moved = true
			run := int64(1)
			for run < maxRun && stale(g+run) {
				run++
			}
			buf := runBuf[:run*fsz]
			for i := int64(0); i < run; i++ {
				err := f.fetchBlock(p, g+i, &fr, -1)
				copy(buf[i*fsz:(i+1)*fsz], fr)
				if err != nil {
					if errors.Is(err, vfs.ErrCorrupt) {
						// Just poisoned: whatever the slot holds is never
						// read — reads are gated by the poison flag.
						continue
					}
					return err
				}
				copied[g+i-lo] = binary.LittleEndian.Uint64(fr[bs+4:])
			}
			_, frameOff := f.blockHome(g)
			if err := f.fs.Transport.Write(p, f.fs.Client, dst.MR, frameOff, buf); err != nil {
				return err
			}
			g += run - 1
		}
	}
	return nil
}

// scrubLoop is the per-file background scrubber: every ScrubEvery it
// sweeps the next stripe, verifying every written frame on every
// replica and repairing what it finds (latent corruption, staleness,
// missing replicas).
func (f *File) scrubLoop(p *sim.Proc) {
	for {
		p.Sleep(f.fs.ScrubEvery)
		if f.closed || f.deleted || f.unavailable {
			return
		}
		s := f.scrubCursor % len(f.leases)
		f.scrubCursor++
		f.scrubStripe(p, s)
	}
}

// scrubStripe verifies stripe s end to end on every live replica.
func (f *File) scrubStripe(p *sim.Proc, s int) {
	// Restore the replication factor first: a replica whose earlier
	// rebuild failed (donor scarcity at the time) gets another chance.
	for r := range f.down[s] {
		if f.down[s][r] && !f.repairing[s][r] && f.fs.Recover && f.healthyReplicas(s) > 0 {
			f.repairing[s][r] = true
			rr := r
			name := fmt.Sprintf("replica-repair:%s:%d.%d", f.name, s, rr)
			p.Kernel().Go(name, func(rp *sim.Proc) { f.repairReplica(rp, s, rr) })
		}
	}
	lo, hi := f.stripeBlockRange(s)
	bs := BlockSize
	fsz := int64(f.frameSize())
	const maxRun = 32
	scratch := make([]byte, maxRun*fsz)
	for r := range f.leases[s] {
		g := lo
		for g < hi {
			if f.closed || f.deleted || f.unavailable {
				return
			}
			if f.down[s][r] || f.repairing[s][r] {
				break
			}
			if f.gens[g] == 0 || f.poisoned[g] {
				g++
				continue
			}
			run := int64(1)
			for g+run < hi && run < maxRun && f.gens[g+run] != 0 && !f.poisoned[g+run] {
				run++
			}
			l := f.leases[s][r]
			if !l.Valid(p.Now()) {
				f.replicaLost(s, r)
				break
			}
			_, frameOff := f.blockHome(g)
			err := f.fs.Transport.Read(p, f.fs.Client, l.MR, frameOff, scratch[:run*fsz])
			if err != nil {
				if errors.Is(err, rmem.ErrRevoked) {
					f.replicaLost(s, r)
				}
				break
			}
			for i := int64(0); i < run; i++ {
				fr := scratch[i*fsz : (i+1)*fsz]
				if verifyFrame(fr, f.gens[g+i]) == nil {
					f.fs.ScrubChecked.Add(1, int64(bs))
					continue
				}
				// Latent corruption or staleness on replica r: find a
				// good copy elsewhere and rewrite this one, or poison.
				f.fs.Corruptions.Add(1, int64(bs))
				good := f.fs.getFrame()
				if ferr := f.fetchBlock(p, g+i, &good, r); ferr == nil {
					f.repairBlockOn(p, g+i, r, good)
				} else if !errors.Is(ferr, vfs.ErrCorrupt) {
					// No other replica could serve the block: this was
					// the only copy and it is bad.
					f.poisonBlock(p, g+i)
				}
				f.fs.putFrame(good)
			}
			g += run
		}
	}
	f.fs.ScrubSweeps++
}

// Fault-injection accessors (used by the corruption harness in
// internal/exp; see the Inject* primitives on rmem.MR). They are no-ops
// returning false/nil unless integrity frames are on.

// Blocks returns the number of logical integrity blocks.
func (f *File) Blocks() int { return len(f.gens) }

// BlockWritten reports whether block g has ever been written (an
// injection target must hold real data to model silent corruption).
func (f *File) BlockWritten(g int) bool {
	return g >= 0 && g < len(f.gens) && f.gens[g] > 0
}

// BlockPoisoned reports whether block g currently has no verifiable
// copy.
func (f *File) BlockPoisoned(g int) bool { return f.poisoned[int64(g)] }

// blockMR resolves block g on replica r to its MR and frame offset.
func (f *File) blockMR(g, r int) (*rmem.MR, int, bool) {
	if !f.fs.Integrity || g < 0 || g >= len(f.gens) {
		return nil, 0, false
	}
	s, frameOff := f.blockHome(int64(g))
	if r < 0 || r >= len(f.leases[s]) || f.down[s][r] {
		return nil, 0, false
	}
	return f.leases[s][r].MR, frameOff, true
}

// InjectBlockFlip flips one stored bit of block g's frame on replica r
// (a silent medium bit flip).
func (f *File) InjectBlockFlip(g, r int) bool {
	mr, off, ok := f.blockMR(g, r)
	return ok && mr.InjectXOR(off+BlockSize/2, 0x01)
}

// InjectBlockTear clobbers the second half of block g's stored data on
// replica r without touching the trailer (a torn write).
func (f *File) InjectBlockTear(g, r int) bool {
	mr, off, ok := f.blockMR(g, r)
	return ok && mr.InjectClobber(off+BlockSize/2, BlockSize/2)
}

// SnapshotBlockFrame captures block g's stored frame on replica r for a
// later RestoreBlockFrame (stale-replica resurrection).
func (f *File) SnapshotBlockFrame(g, r int) []byte {
	mr, off, ok := f.blockMR(g, r)
	if !ok {
		return nil
	}
	return mr.InjectCopyOut(off, f.frameSize())
}

// RestoreBlockFrame writes a snapshot back over block g's frame on
// replica r: the stored image silently reverts to an older, internally
// consistent state, detectable only by the generation stamp.
func (f *File) RestoreBlockFrame(g, r int, snap []byte) bool {
	mr, off, ok := f.blockMR(g, r)
	return ok && len(snap) == f.frameSize() && mr.InjectCopyIn(off, snap)
}
