// PushScan: the executor surface of donor-side operator pushdown. The
// operator scans a table's pushable remote segment instead of its
// clustered B-tree, either evaluating the predicate at the donors
// (only qualifying bytes cross the wire) or fetching the segment whole
// and running the *same* evaluator client-side — the two placements
// the optimizer chooses between. Partitions of the segment run on
// worker processes, so pushed evaluation at different donors and the
// returning transfers overlap like a ParallelScan's partitions do.
package exec

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"strings"
	"time"

	"remotedb/internal/engine/catalog"
	"remotedb/internal/engine/row"
	"remotedb/internal/fault"
	"remotedb/internal/rmem"
	"remotedb/internal/sim"
	"remotedb/internal/vfs"
)

// pushRecLen is the length-prefix width of pushable-log records
// (rmem's documented framing; results parse with rmem.PushRecords).
const pushRecLen = 4

// PushScan scans a table's pushable segment with a pushed predicate
// and optional projection. With FetchAll it ships each partition whole
// and evaluates client-side; otherwise evaluation happens at the
// donors, degrading per partition to fetch-all when pushdown is
// unavailable (encrypted payloads, SMB transport, unframed files) and
// to an ordinary table scan when the table has no segment at all —
// never an engine-visible error beyond what a plain read would see.
type PushScan struct {
	Table    *catalog.Table
	Query    *rmem.PushQuery
	FetchAll bool
	DOP      int // partitions evaluated concurrently (0 = ctx DOP)

	// Fallbacks counts partitions that degraded from donor evaluation
	// to fetch-all.
	Fallbacks int64

	schema *row.Schema
	logs   [][]byte
	cur    int
	rest   []byte
	inner  Op // degraded whole-table path (no segment)
	open   bool
	row    row.Tuple // the row Next lends
}

// Schema returns the projected schema (the table's schema when the
// query projects nothing away).
func (s *PushScan) Schema() *row.Schema {
	if s.schema == nil {
		if s.Query.Proj == nil {
			s.schema = s.Table.Schema
		} else {
			cols := make([]row.Column, len(s.Query.Proj))
			for i, ord := range s.Query.Proj {
				cols[i] = s.Table.Schema.Columns[ord]
			}
			s.schema = row.NewSchema(cols...)
		}
	}
	return s.schema
}

// Open evaluates every segment partition (concurrently when DOP > 1)
// and stages the matched-record logs for iteration.
func (s *PushScan) Open(c *Ctx) error {
	s.cur, s.rest, s.logs, s.inner = 0, nil, nil, nil
	seg := s.Table.Push
	if seg == nil {
		// The segment was dropped after planning: degrade to the
		// ordinary scan with the same predicate applied client-side.
		var op Op = &TableScan{Table: s.Table}
		if len(s.Query.Preds) > 0 {
			op = &Filter{In: op, Pred: pushPred(s.Query.Preds)}
		}
		if s.Query.Proj != nil {
			cols := make([]string, len(s.Query.Proj))
			for i, ord := range s.Query.Proj {
				cols[i] = s.Table.Schema.Columns[ord].Name
			}
			op = &Project{In: op, Cols: cols}
		}
		s.inner = op
		s.open = true
		return s.inner.Open(c)
	}
	dop := s.DOP
	if dop <= 0 {
		dop = c.DOP
	}
	if dop < 1 {
		dop = 1
	}
	parts := seg.Partition(dop)
	s.logs = make([][]byte, len(parts))
	s.open = true
	if len(parts) <= 1 {
		if len(parts) == 0 {
			return nil
		}
		out, err := s.runPart(c, seg, parts[0])
		s.logs[0] = out
		return err
	}
	k := c.Server.K
	wg := sim.NewWaitGroup(k)
	errs := make([]error, len(parts))
	for i, rg := range parts {
		wg.Add(1)
		k.Go(fmt.Sprintf("push-%d", i), func(wp *sim.Proc) {
			defer wg.Done()
			child := c.Child(wp)
			s.logs[i], errs[i] = s.runPart(child, seg, rg)
			child.FlushCPU()
		})
	}
	wg.Wait(c.P)
	for _, err := range errs {
		if err != nil {
			return err
		}
	}
	return nil
}

// runPart evaluates one chunk-aligned byte range of the segment,
// returning its matched-record log.
func (s *PushScan) runPart(c *Ctx, seg *catalog.PushSegment, rg [2]int64) ([]byte, error) {
	off, n := rg[0], rg[1]-rg[0]
	if n <= 0 {
		return nil, nil
	}
	if !s.FetchAll {
		out, _, err := seg.File.PushRead(c.P, off, n, s.Query)
		if err == nil {
			return out, nil
		}
		if !errors.Is(err, fault.ErrUnavailable) {
			return nil, err
		}
		s.Fallbacks++
	}
	buf := make([]byte, n)
	// Prefer the vectored read: one doorbell-batched transfer per
	// destination server instead of a round trip per block, so the
	// fetch-all arm is wire-bound the way the cost model prices it.
	if vf, ok := seg.File.(vfs.VectorFile); ok {
		if err := vf.ReadAtV(c.P, []vfs.Vec{{Off: off, Buf: buf}}); err != nil {
			return nil, err
		}
	} else if err := seg.File.ReadAt(c.P, buf, off); err != nil {
		return nil, err
	}
	// Chunks are self-contained (padding ends each one), so client-side
	// evaluation walks them one at a time with the donors' evaluator.
	chunk := int64(seg.Chunk)
	if chunk <= 0 {
		chunk = n
	}
	var out []byte
	rows, matched := 0, 0
	for o := int64(0); o < n; o += chunk {
		end := o + chunk
		if end > n {
			end = n
		}
		res, r, m, err := rmem.EvalPush(buf[o:end], s.Query, out)
		if err != nil {
			return nil, err
		}
		out = res
		rows += r
		matched += m
	}
	// Every scanned row is decoded exactly once: non-matching rows here,
	// matching rows when Next surfaces them — so a fetch-all scan totals
	// rows x PerRow, matching the optimizer's CostFetchAll.
	c.chargeCPU(time.Duration(rows-matched) * c.CPU.PerRow)
	return out, nil
}

// Next decodes the next matched row, partitions in segment order (PK
// order, since the segment mirrors the clustered tree).
func (s *PushScan) Next(c *Ctx) (row.Tuple, bool, error) {
	if !s.open {
		return nil, false, errors.New("exec: push scan not open")
	}
	if s.inner != nil {
		return s.inner.Next(c)
	}
	for {
		if len(s.rest) >= pushRecLen {
			n := int(binary.LittleEndian.Uint32(s.rest))
			rec := s.rest[pushRecLen : pushRecLen+n]
			s.rest = s.rest[pushRecLen+n:]
			t, err := row.DecodeCols(s.row, s.Schema(), rec, nil)
			if err != nil {
				return nil, false, err
			}
			s.row = t
			c.chargeCPU(c.CPU.PerRow)
			return t, true, nil
		}
		if s.cur >= len(s.logs) {
			return nil, false, nil
		}
		s.rest = s.logs[s.cur]
		s.cur++
	}
}

// Close releases the staged logs.
func (s *PushScan) Close(c *Ctx) error {
	s.open = false
	s.logs, s.rest = nil, nil
	if s.inner != nil {
		return s.inner.Close(c)
	}
	return nil
}

// pushPred compiles pushed predicate leaves into a client-side tuple
// predicate for the degraded whole-table path.
func pushPred(leaves []rmem.PushLeaf) func(row.Tuple) bool {
	return func(t row.Tuple) bool {
		for _, l := range leaves {
			if !leafHolds(t[l.Col], l) {
				return false
			}
		}
		return true
	}
}

func leafHolds(v interface{}, l rmem.PushLeaf) bool {
	var cmp int
	switch x := v.(type) {
	case int64:
		switch {
		case x < l.Int:
			cmp = -1
		case x > l.Int:
			cmp = 1
		}
	case float64:
		switch {
		case x < l.Float:
			cmp = -1
		case x > l.Float:
			cmp = 1
		}
	case string:
		cmp = strings.Compare(x, string(l.Bytes))
	case []byte:
		cmp = bytes.Compare(x, l.Bytes)
	}
	switch l.Op {
	case rmem.PushEQ:
		return cmp == 0
	case rmem.PushNE:
		return cmp != 0
	case rmem.PushLT:
		return cmp < 0
	case rmem.PushLE:
		return cmp <= 0
	case rmem.PushGT:
		return cmp > 0
	default:
		return cmp >= 0
	}
}
