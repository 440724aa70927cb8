// Pushed range reads: PushRead ships a predicate + projection to the
// donors backing a striped, replicated, integrity-framed file and gets
// back only the qualifying row bytes. Integrity precedes evaluation —
// each element's frame is checksum-verified donor-side *before* the
// predicate runs, against the client-held generation — and failures
// degrade, never break: a corrupt or revoked element falls back to the
// ordinary verified fetch path (replica failover, in-place repair,
// poison-on-total-loss) with the *same* evaluator applied client-side,
// so a degraded stripe costs bandwidth, not correctness.
//
// The fallback ladder, from cheapest to most general:
//
//  1. donor verify fails (bit flip, torn write, stale frame) — the
//     element is refetched through fetchBlock, which fails over across
//     replicas and repairs the bad copy, and evaluated client-side;
//  2. the element's MR is revoked mid-flight — same refetch, which
//     marks the replica lost and rebuilds it in the background;
//  3. pushdown is unavailable wholesale (encrypted payloads, SMB
//     transport, unframed file) — the caller sees ErrNoPush (wrapping
//     fault.ErrUnavailable) and fetches whole blocks itself.
package core

import (
	"errors"
	"fmt"

	"remotedb/internal/fault"
	"remotedb/internal/rmem"
	"remotedb/internal/sim"
)

// ErrNoPush reports that this file cannot serve pushed reads (no
// integrity frames, or the client/transport has no donor compute path).
// It wraps fault.ErrUnavailable: fetch the range whole instead.
var ErrNoPush = fmt.Errorf("core: pushed read unavailable (%w)", fault.ErrUnavailable)

// PushChunk returns the chunk size pushed record logs stored in this
// file must be aligned to — one integrity block, so every framed block
// is a self-contained record run — or 0 when the file cannot serve
// pushed reads.
func (f *File) PushChunk() int {
	if !f.fs.Integrity {
		return 0
	}
	return BlockSize
}

// PushRead evaluates q against the pushable record log stored in
// [off, off+n) — off must be block-aligned — and returns the
// qualifying projected rows as one record log (parse with
// rmem.PushRecords). Donor-side evaluation is attempted for every
// written block in one ScanPush; elements that fail integrity or lose
// their region mid-flight are transparently refetched and evaluated
// client-side, so the only errors callers see are the ones ordinary
// reads would also see (whole stripe lost, block poisoned).
func (f *File) PushRead(p *sim.Proc, off, n int64, q *rmem.PushQuery) ([]byte, rmem.PushStats, error) {
	var stats rmem.PushStats
	if err := f.check(off, int(n)); err != nil {
		return nil, stats, err
	}
	if !f.fs.Integrity {
		return nil, stats, ErrNoPush
	}
	bs := int64(BlockSize)
	if off%bs != 0 {
		return nil, stats, fmt.Errorf("core: pushed read at %d not aligned to %d-byte blocks", off, bs)
	}
	lo := off / bs
	hi := (off + n + bs - 1) / bs
	type ref struct {
		g    int64
		s, r int
	}
	var elems []rmem.PushElem
	var refs []ref
	for g := lo; g < hi; g++ {
		if f.poisoned[g] {
			return nil, stats, f.corruptErr(g)
		}
		if f.gens[g] == 0 {
			continue // never written: zero records, no wire traffic
		}
		s, frameOff := f.blockHome(g)
		live, _, err := f.liveReplicas(p, s, -1)
		if err != nil {
			return nil, stats, err
		}
		if live == 0 {
			return nil, stats, f.lostErr(s)
		}
		r := live.first()
		gen := f.gens[g]
		elems = append(elems, rmem.PushElem{
			MR:  f.leases[s][r].MR,
			Off: frameOff,
			N:   f.frameSize(),
			Verify: func(raw []byte) ([]byte, error) {
				if err := verifyFrame(raw, gen); err != nil {
					return nil, err
				}
				return raw[:BlockSize], nil
			},
		})
		refs = append(refs, ref{g: g, s: s, r: r})
	}
	f.fs.PushReads++
	if len(elems) == 0 {
		return nil, stats, nil
	}
	outs, stats, errs := f.fs.Client.ScanPush(p, f.fs.Transport, elems, q)
	var out []byte
	for i := range elems {
		if errs == nil || errs[i] == nil {
			out = append(out, outs[i]...)
			continue
		}
		err := errs[i]
		if errors.Is(err, rmem.ErrPushUnavailable) {
			return nil, stats, ErrNoPush
		}
		if errors.Is(err, rmem.ErrRevoked) {
			// The region vanished mid-flight: mark the replica lost so a
			// background rebuild starts, then refetch through failover.
			f.replicaLost(refs[i].s, refs[i].r)
		} else {
			// Donor-side verify failed: the checksum pass *is* the
			// detection; the refetch below fails over and repairs.
			f.fs.Corruptions.Add(1, bs)
		}
		fb, ferr := f.pushFallbackBlock(p, refs[i].g, q)
		if ferr != nil {
			return nil, stats, ferr
		}
		out = append(out, fb...)
		f.fs.PushFallbacks++
	}
	f.Reads++
	f.BytesRead += stats.BytesReturned
	return out, stats, nil
}

// pushFallbackBlock fetches block g through the ordinary verified read
// path (replica failover, in-place repair, poisoning) and runs the same
// evaluator client-side, charging the database server the CPU the donor
// would have spent.
func (f *File) pushFallbackBlock(p *sim.Proc, g int64, q *rmem.PushQuery) ([]byte, error) {
	frame := f.fs.getFrame()
	defer func() { f.fs.putFrame(frame) }() // a race may swap it; EvalPush copies what it keeps
	if err := f.fetchBlock(p, g, &frame, -1); err != nil {
		return nil, err
	}
	data := frame[:BlockSize]
	out, rows, _, err := rmem.EvalPush(data, q, nil)
	if err != nil {
		// The frame verified but its records do not parse: announce it
		// the same way an unverifiable block is announced.
		f.poisonBlock(p, g)
		return nil, f.corruptErr(g)
	}
	f.fs.Client.Server.Work(p, rmem.PushEvalCost(int64(len(data)), int64(rows), len(q.Preds)))
	f.BytesRead += int64(len(data))
	return out, nil
}
