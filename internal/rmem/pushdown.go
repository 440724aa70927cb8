// Donor-side operator pushdown: ScanPush evaluates simple predicates
// (constant compares, AND-of-leaves) and column projections against
// remote blocks *at the donor*, so only qualifying row bytes cross the
// wire. The donor's CPU is charged in the simulation by PushEvalCost,
// the formula the optimizer prices it with; the tiny predicate
// descriptor travels client->donor, and the qualifying bytes return in
// one staged, doorbell-batched transfer per destination server — the
// Farview-style complement to the paper's fetch-everything design.
//
// Pushdown requires plaintext at the donor and a one-sided-capable
// transport, so it is unavailable when payload encryption is on (donors
// only ever hold ciphertext) or on the SMB paths; callers fall back to
// fetching whole blocks.
package rmem

import (
	"encoding/binary"
	"fmt"
	"math"
	"time"

	"remotedb/internal/cluster"
	"remotedb/internal/fault"
	"remotedb/internal/hw/nic"
	"remotedb/internal/sim"
)

// ErrPushUnavailable reports that donor-side evaluation cannot run for
// this client/transport (encryption on, or no donor compute path). It
// wraps fault.ErrUnavailable: the data is fine, fetch it whole instead.
var ErrPushUnavailable = fmt.Errorf("rmem: pushdown unavailable (%w)", fault.ErrUnavailable)

// FieldKind describes one field of the pushed record layout. The donor
// walks records with this schema; it mirrors the engine's row encoding
// (8-byte big-endian ints/floats, 2-byte big-endian length-prefixed
// byte strings) without importing the engine.
type FieldKind int

// Field kinds understood by the donor-side evaluator.
const (
	FieldInt64 FieldKind = iota
	FieldFloat64
	FieldBytes // also covers strings: both are length-prefixed
)

// PushOp is a comparison operator in a pushed predicate leaf.
type PushOp int

// Comparison operators supported donor-side.
const (
	PushEQ PushOp = iota
	PushNE
	PushLT
	PushLE
	PushGT
	PushGE
)

func (op PushOp) String() string {
	switch op {
	case PushEQ:
		return "="
	case PushNE:
		return "!="
	case PushLT:
		return "<"
	case PushLE:
		return "<="
	case PushGT:
		return ">"
	case PushGE:
		return ">="
	}
	return "?"
}

// PushLeaf is one constant comparison: record field Col <op> constant.
// Exactly one of Int/Float/Bytes is consulted, per the field's kind.
type PushLeaf struct {
	Col   int
	Op    PushOp
	Int   int64
	Float float64
	Bytes []byte
}

// PushQuery is the pushed predicate + projection: an AND of leaves over
// records laid out per Cols, returning the fields named by Proj (nil =
// whole record).
type PushQuery struct {
	Cols  []FieldKind
	Preds []PushLeaf
	Proj  []int
}

// descriptorBytes is the wire size of the pushed query descriptor plus
// one element header — what travels client->donor before any eval.
func (q *PushQuery) descriptorBytes() int {
	n := 32 // opcode, element offset/length, schema header
	n += len(q.Cols)
	for _, l := range q.Preds {
		n += 16 + len(l.Bytes)
	}
	n += 4 * len(q.Proj)
	return n
}

// PushElem is one remote block to evaluate: n bytes at Off within MR.
// Verify, when set, runs donor-side *before* eval — integrity precedes
// evaluation — returning the record payload inside the raw block (e.g.
// stripping a checksum frame) or an error that fails only this element.
type PushElem struct {
	MR     *MR
	Off    int
	N      int
	Verify func(raw []byte) (payload []byte, err error)
}

// PushStats aggregates one ScanPush call.
type PushStats struct {
	Elems         int
	BytesScanned  int64 // bytes read and evaluated at donors
	BytesReturned int64 // qualifying bytes that crossed the wire
	RowsScanned   int64
	RowsMatched   int64
	DonorCPU      time.Duration // donor CPU charged
}

// Donor-side evaluation cost model: a streaming scan over pinned memory
// runs at memory-bandwidth-class speed (checksum + field walk fused into
// one pass), plus a fixed per-record and per-leaf overhead.
const (
	pushScanBytesPerSec = 4e9 // fused verify+scan throughput
	pushPerRecord       = 30 * time.Nanosecond
	pushPerLeaf         = 10 * time.Nanosecond
)

// PushEvalCost returns the donor CPU time to verify and scan n bytes
// holding rows records against leaves predicate leaves: what ScanPush
// charges the donor and what the optimizer prices a pushed scan with.
func PushEvalCost(n, rows int64, leaves int) time.Duration {
	d := time.Duration(float64(n) / pushScanBytesPerSec * 1e9)
	d += time.Duration(rows) * (pushPerRecord + time.Duration(leaves)*pushPerLeaf)
	return d
}

// ScanPush evaluates q against every element at the element's donor and
// returns, per element, only the qualifying projected row bytes (as a
// length-prefixed record log parseable by PushRecords). Error semantics
// match ReadV: errs is nil when every element succeeded, otherwise a
// per-element slice; a failed element has outs[i] == nil and callers
// fail over element by element (fetch the whole block and evaluate
// client-side) without retrying the batch.
func (c *Client) ScanPush(p *sim.Proc, t Transport, elems []PushElem, q *PushQuery) (outs [][]byte, stats PushStats, errs []error) {
	outs = make([][]byte, len(elems))
	stats.Elems = len(elems)
	if len(elems) == 0 {
		return outs, stats, nil
	}
	if c.crypt != nil {
		// Donors hold only ciphertext; they cannot evaluate anything.
		return outs, stats, allFailed(len(elems), ErrPushUnavailable)
	}
	if _, ok := t.(*rdmaTransport); !ok {
		// The SMB file-server paths have no donor compute surface.
		return outs, stats, allFailed(len(elems), ErrPushUnavailable)
	}
	errs = make([]error, len(elems))
	failed := false
	pending := make([]int, 0, len(elems))
	for i := range elems {
		if err := checkRange(elems[i].MR, elems[i].Off, elems[i].N); err != nil {
			errs[i] = err
			failed = true
			continue
		}
		pending = append(pending, i)
	}
	// Sub-batch like the vectored path: one scheduler's slot count, and
	// the staging MR bounds the *returned* bytes, which eval bounds by
	// the input bytes — so admit by input size, at least one element.
	for len(pending) > 0 {
		batch := pending
		if len(batch) > c.slotsPerSch {
			batch = batch[:c.slotsPerSch]
		}
		n, bytes := 0, 0
		for _, i := range batch {
			if n > 0 && bytes+elems[i].N > c.stagingBytes {
				break
			}
			bytes += elems[i].N
			n++
		}
		batch = batch[:n]
		pending = pending[len(batch):]
		c.pushBatch(p, elems, batch, q, outs, errs, &stats, &failed)
	}
	c.Pushes++
	c.PushBytesScanned += stats.BytesScanned
	c.PushBytesReturned += stats.BytesReturned
	c.PushDonorCPU += stats.DonorCPU
	if !failed {
		return outs, stats, nil
	}
	return outs, stats, errs
}

// pushBatch runs one staged sub-batch: evaluate every element at its
// donor, then move the qualifying bytes back as one doorbell-batched
// post with one wire message (and one charged round trip) per donor.
func (c *Client) pushBatch(p *sim.Proc, elems []PushElem, batch []int, q *PushQuery, outs [][]byte, errs []error, stats *PushStats, failed *bool) {
	c.acquireStaging(p, len(batch))
	// Evaluate first (pure byte work, no virtual time): per-element
	// verify -> eval, accumulating each donor's CPU bill and the return
	// payload sizes that price the wire stage below.
	type group struct {
		owner    *cluster.Server
		reqBytes int           // descriptor bytes client->donor
		outBytes int           // qualifying bytes donor->client
		cpu      time.Duration // donor eval time
	}
	var groups []group
	desc := q.descriptorBytes()
	evalErr := make([]error, len(elems))
	for _, i := range batch {
		e := &elems[i]
		if e.MR.revoked {
			// Revoked while an earlier sub-batch was in flight or this
			// one waited for staging: its memory is gone, and the
			// post-flight check below fails the element.
			continue
		}
		raw := e.MR.buf[e.Off : e.Off+e.N]
		gi := -1
		for g := range groups {
			if groups[g].owner == e.MR.Owner {
				gi = g
				break
			}
		}
		if gi < 0 {
			groups = append(groups, group{owner: e.MR.Owner})
			gi = len(groups) - 1
		}
		groups[gi].reqBytes += desc
		payload := raw
		var rows, matched int
		var out []byte
		var err error
		if e.Verify != nil {
			payload, err = e.Verify(raw)
		}
		if err == nil {
			out, rows, matched, err = EvalPush(payload, q, nil)
		}
		// Verify + eval both burn donor CPU whether or not they succeed:
		// a corrupt block is discovered *by* the checksum pass.
		cost := PushEvalCost(int64(e.N), int64(rows), len(q.Preds))
		groups[gi].cpu += cost
		stats.DonorCPU += cost
		stats.BytesScanned += int64(e.N)
		if err != nil {
			evalErr[i] = err
			continue
		}
		outs[i] = out
		groups[gi].outBytes += len(out)
		stats.BytesReturned += int64(len(out))
		stats.RowsScanned += int64(rows)
		stats.RowsMatched += int64(matched)
	}
	// One doorbell posts every descriptor; each donor then runs its share
	// of the eval on its own CPU and the qualifying bytes come back as one
	// message per donor. How many bytes qualify is not known when the
	// doorbell rings, so the completion mode is chosen as for an empty
	// transfer.
	c.complete(p, 0, func() {
		p.Sleep(nic.ProfileFor(nic.ProtoRDMA).ClientPost)
		for _, g := range groups {
			nic.Wire(p, c.Server.NIC, g.owner.NIC, g.reqBytes)
			g.owner.Work(p, g.cpu)
			p.Sleep(nic.MemcpyCost(g.outBytes))
			nic.Wire(p, g.owner.NIC, c.Server.NIC, g.outBytes)
			c.RoundTrips++
		}
	})
	// Post-flight: regions revoked while the batch was in flight fail
	// only their own elements, and verify/eval failures surface now.
	for _, i := range batch {
		switch {
		case elems[i].MR.revoked:
			errs[i] = ErrRevoked
			outs[i] = nil
			*failed = true
		case evalErr[i] != nil:
			errs[i] = evalErr[i]
			*failed = true
		default:
			c.Reads++
			c.BytesRead += int64(len(outs[i]))
		}
	}
	c.staging.Release(len(batch))
}

// --- Pushable record log --------------------------------------------------

// pushLenSize is the little-endian u32 length prefix on every record in
// a pushable log (matching the spill-file record framing).
const pushLenSize = 4

// AppendPushRecord appends one length-prefixed record to a pushable
// log, zero-padding to the next chunk boundary first when the record
// would cross one — chunks are self-contained so any chunk-aligned
// block range can be evaluated donor-side in isolation. rec must fit a
// chunk (chunk-pushLenSize bytes).
func AppendPushRecord(seg []byte, rec []byte, chunk int) []byte {
	need := pushLenSize + len(rec)
	if chunk > 0 {
		used := len(seg) % chunk
		if used+need > chunk {
			seg = append(seg, make([]byte, chunk-used)...)
		}
	}
	var lenb [pushLenSize]byte
	binary.LittleEndian.PutUint32(lenb[:], uint32(len(rec)))
	seg = append(seg, lenb[:]...)
	return append(seg, rec...)
}

// PadPushChunk zero-pads the log to the next chunk boundary.
func PadPushChunk(seg []byte, chunk int) []byte {
	if chunk <= 0 {
		return seg
	}
	if used := len(seg) % chunk; used != 0 {
		seg = append(seg, make([]byte, chunk-used)...)
	}
	return seg
}

// PushRecords iterates the records of one block of pushable log (any
// chunk-aligned range), stopping at zero-length padding.
func PushRecords(block []byte, fn func(rec []byte) error) error {
	for len(block) >= pushLenSize {
		n := int(binary.LittleEndian.Uint32(block))
		if n == 0 {
			// Padding: skip to the end of the remaining bytes only if all
			// zero would be the common case; records never have length 0,
			// so a zero length always means the rest of this chunk is pad.
			return nil
		}
		block = block[pushLenSize:]
		if n > len(block) {
			return fmt.Errorf("rmem: truncated push record (%w)", fault.ErrCorrupt)
		}
		if err := fn(block[:n]); err != nil {
			return err
		}
		block = block[n:]
	}
	return nil
}

// EvalPush scans one block of pushable log against q, appending each
// qualifying projected row to out as a length-prefixed record. It is
// the single evaluator — the donor runs it inside ScanPush and the
// client runs the *same* function when falling back to fetch-all, so
// both paths agree bit for bit.
func EvalPush(block []byte, q *PushQuery, out []byte) (res []byte, rows, matched int, err error) {
	bounds := make([][2]int, len(q.Cols))
	err = PushRecords(block, func(rec []byte) error {
		rows++
		if err := fieldBounds(rec, q.Cols, bounds); err != nil {
			return err
		}
		for _, leaf := range q.Preds {
			ok, err := evalLeaf(rec, q.Cols, bounds, leaf)
			if err != nil {
				return err
			}
			if !ok {
				return nil
			}
		}
		matched++
		var proj []byte
		if q.Proj == nil {
			proj = rec
		} else {
			for _, col := range q.Proj {
				b := bounds[col]
				proj = append(proj, rec[b[0]:b[1]]...)
			}
		}
		var lenb [pushLenSize]byte
		binary.LittleEndian.PutUint32(lenb[:], uint32(len(proj)))
		out = append(out, lenb[:]...)
		out = append(out, proj...)
		return nil
	})
	if err != nil {
		return nil, rows, matched, err
	}
	return out, rows, matched, nil
}

// fieldBounds walks one record, filling bounds[i] with the [start,end)
// of field i's encoding (length prefix included for byte fields, so a
// projection slice is itself a valid field encoding).
func fieldBounds(rec []byte, cols []FieldKind, bounds [][2]int) error {
	off := 0
	for i, k := range cols {
		start := off
		switch k {
		case FieldInt64, FieldFloat64:
			off += 8
		case FieldBytes:
			if off+2 > len(rec) {
				return fmt.Errorf("rmem: push record field %d truncated (%w)", i, fault.ErrCorrupt)
			}
			off += 2 + int(binary.BigEndian.Uint16(rec[off:]))
		}
		if off > len(rec) {
			return fmt.Errorf("rmem: push record field %d truncated (%w)", i, fault.ErrCorrupt)
		}
		bounds[i] = [2]int{start, off}
	}
	if off != len(rec) {
		return fmt.Errorf("rmem: push record has %d trailing bytes (%w)", len(rec)-off, fault.ErrCorrupt)
	}
	return nil
}

// evalLeaf applies one constant comparison to the record.
func evalLeaf(rec []byte, cols []FieldKind, bounds [][2]int, leaf PushLeaf) (bool, error) {
	if leaf.Col < 0 || leaf.Col >= len(cols) {
		return false, fmt.Errorf("rmem: push predicate names column %d of %d", leaf.Col, len(cols))
	}
	b := bounds[leaf.Col]
	field := rec[b[0]:b[1]]
	var cmp int
	switch cols[leaf.Col] {
	case FieldInt64:
		v := int64(binary.BigEndian.Uint64(field))
		switch {
		case v < leaf.Int:
			cmp = -1
		case v > leaf.Int:
			cmp = 1
		}
	case FieldFloat64:
		v := float64frombitsBE(field)
		switch {
		case v < leaf.Float:
			cmp = -1
		case v > leaf.Float:
			cmp = 1
		}
	case FieldBytes:
		cmp = bytesCompare(field[2:], leaf.Bytes)
	}
	switch leaf.Op {
	case PushEQ:
		return cmp == 0, nil
	case PushNE:
		return cmp != 0, nil
	case PushLT:
		return cmp < 0, nil
	case PushLE:
		return cmp <= 0, nil
	case PushGT:
		return cmp > 0, nil
	case PushGE:
		return cmp >= 0, nil
	}
	return false, fmt.Errorf("rmem: unknown push op %d", leaf.Op)
}

func float64frombitsBE(b []byte) float64 {
	return math.Float64frombits(binary.BigEndian.Uint64(b))
}

func bytesCompare(a, b []byte) int {
	n := len(a)
	if len(b) < n {
		n = len(b)
	}
	for i := 0; i < n; i++ {
		if a[i] != b[i] {
			if a[i] < b[i] {
				return -1
			}
			return 1
		}
	}
	switch {
	case len(a) < len(b):
		return -1
	case len(a) > len(b):
		return 1
	}
	return 0
}
