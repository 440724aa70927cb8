package exec

import (
	"bytes"
	"container/heap"
	"fmt"
	"slices"
	"sort"
	"time"

	"remotedb/internal/engine/row"
	"remotedb/internal/engine/tempdb"
)

// SortSpec orders by the named column, optionally descending.
type SortSpec struct {
	Col  string
	Desc bool
}

// appendSortKey appends a memcmp-comparable key for the specs to dst
// (descending columns are bit-flipped).
func appendSortKey(dst []byte, s *row.Schema, specs []SortSpec, t row.Tuple) []byte {
	for _, sp := range specs {
		n := len(dst)
		dst = row.EncodeKey(dst, t[s.MustOrdinal(sp.Col)])
		if sp.Desc {
			for i := n; i < len(dst); i++ {
				dst[i] = ^dst[i]
			}
		}
	}
	return dst
}

// Sort is an external merge sort: rows accumulate until the memory grant
// is exceeded, sorted runs spill to TempDB, and Next merges the runs —
// the second TempDB consumer of the paper's scenario (ii).
type Sort struct {
	In    Op
	Specs []SortSpec

	rows    []row.Tuple
	kept    keeper // rows' storage
	keys    [][]byte
	pos     int
	runs    []*tempdb.SpillFile
	merge   *mergeState
	schema  *row.Schema
	spilled bool
	rec     []byte    // spill-record scratch
	row     row.Tuple // the merge's decoded row
}

// Schema passes through.
func (s *Sort) Schema() *row.Schema { return s.In.Schema() }

// Spilled reports whether any run went to TempDB.
func (s *Sort) Spilled() bool { return s.spilled }

// Open consumes the whole input, spilling sorted runs as the grant fills.
func (s *Sort) Open(c *Ctx) error {
	err := s.open(c)
	if err != nil {
		s.releaseRuns() // nobody closes an operator that failed to open
	}
	return err
}

func (s *Sort) open(c *Ctx) error {
	s.schema = s.In.Schema()
	// Reset run state so a sort instantiated once can be re-opened.
	s.rows, s.keys, s.pos = nil, nil, 0
	s.runs, s.merge, s.spilled = nil, nil, false
	// The input, once open, is closed on every way out, after the runs
	// of a failed sort are given back (see HashJoin.open).
	if err := s.In.Open(c); err != nil {
		return err
	}
	err := s.readInput(c)
	if err != nil {
		s.releaseRuns()
	}
	if cerr := s.In.Close(c); err == nil {
		err = cerr
	}
	if err != nil {
		return err
	}
	if len(s.runs) == 0 {
		s.sortInMemory(c)
		return nil
	}
	// Spill the final run and set up the merge.
	if len(s.rows) > 0 {
		if err := s.spillRun(c); err != nil {
			return err
		}
	}
	return s.openMerge(c)
}

// readInput consumes the whole input, spilling a sorted run each time
// the grant fills.
func (s *Sort) readInput(c *Ctx) error {
	var used int64
	for {
		t, ok, err := s.In.Next(c)
		if err != nil || !ok {
			return err
		}
		c.chargeCPU(c.CPU.PerSort)
		s.rows = append(s.rows, s.kept.keep(t))
		s.keys = append(s.keys, appendSortKey(nil, s.schema, s.Specs, t))
		used += int64(row.EncodedSize(s.schema, t)) + 64
		if c.Grant > 0 && used > c.Grant {
			if err := s.spillRun(c); err != nil {
				return err
			}
			used = 0
		}
	}
}

func (s *Sort) sortInMemory(c *Ctx) {
	idx := make([]int, len(s.rows))
	for i := range idx {
		idx[i] = i
	}
	sort.Slice(idx, func(a, b int) bool {
		return bytes.Compare(s.keys[idx[a]], s.keys[idx[b]]) < 0
	})
	sorted := make([]row.Tuple, len(s.rows))
	for i, j := range idx {
		sorted[i] = s.rows[j]
	}
	s.rows = sorted
	s.keys = nil
	c.chargeCPU(time.Duration(len(sorted)) * c.CPU.PerSort)
}

// spillRun sorts the in-memory rows and writes them as one run.
func (s *Sort) spillRun(c *Ctx) error {
	s.spilled = true
	c.SpilledRuns++
	idx := make([]int, len(s.rows))
	for i := range idx {
		idx[i] = i
	}
	sort.Slice(idx, func(a, b int) bool {
		return bytes.Compare(s.keys[idx[a]], s.keys[idx[b]]) < 0
	})
	c.chargeCPU(time.Duration(len(idx)) * c.CPU.PerSort)
	run := c.Temp.NewFile(fmt.Sprintf("sort-run-%d", len(s.runs)))
	for _, j := range idx {
		// Prefix the sort key so the merge need not recompute it. One
		// record buffer serves the whole sort: Append copies it.
		s.rec = append(append(s.rec[:0], 0, 0, 0, 0), s.keys[j]...)
		putU32(s.rec, uint32(len(s.keys[j])))
		rec, err := row.Encode(s.rec, s.schema, s.rows[j])
		if err != nil {
			return err
		}
		s.rec = rec
		if err := run.Append(c.P, rec); err != nil {
			return err
		}
	}
	if err := run.Flush(c.P); err != nil {
		return err
	}
	s.runs = append(s.runs, run)
	s.rows = s.rows[:0]
	s.keys = s.keys[:0]
	return nil
}

func putU32(b []byte, v uint32) {
	b[0] = byte(v)
	b[1] = byte(v >> 8)
	b[2] = byte(v >> 16)
	b[3] = byte(v >> 24)
}

func getU32(b []byte) uint32 {
	return uint32(b[0]) | uint32(b[1])<<8 | uint32(b[2])<<16 | uint32(b[3])<<24
}

// mergeState is a k-way merge over spilled runs.
type mergeState struct {
	heads mergeHeap
}

type mergeHead struct {
	key []byte
	img []byte
	r   *tempdb.Reader
	idx int
}

type mergeHeap []*mergeHead

func (h mergeHeap) Len() int { return len(h) }
func (h mergeHeap) Less(i, j int) bool {
	cmp := bytes.Compare(h[i].key, h[j].key)
	if cmp != 0 {
		return cmp < 0
	}
	return h[i].idx < h[j].idx
}
func (h mergeHeap) Swap(i, j int)       { h[i], h[j] = h[j], h[i] }
func (h *mergeHeap) Push(x interface{}) { *h = append(*h, x.(*mergeHead)) }
func (h *mergeHeap) Pop() interface{} {
	old := *h
	n := len(old)
	v := old[n-1]
	old[n-1] = nil
	*h = old[:n-1]
	return v
}

func (s *Sort) openMerge(c *Ctx) error {
	s.merge = &mergeState{}
	for i, run := range s.runs {
		head := &mergeHead{r: run.NewReader(), idx: i}
		ok, err := head.next(c)
		if err != nil {
			return err
		}
		if ok {
			s.merge.heads = append(s.merge.heads, head)
		}
	}
	heap.Init(&s.merge.heads)
	return nil
}

// next reads the run's next record into the head's key and image,
// reusing their storage; ok=false at the end of the run.
func (h *mergeHead) next(c *Ctx) (bool, error) {
	rec, ok, err := h.r.Next(c.P)
	if err != nil || !ok {
		return false, err
	}
	klen := getU32(rec)
	h.key = append(h.key[:0], rec[4:4+klen]...)
	h.img = append(h.img[:0], rec[4+klen:]...)
	return true, nil
}

// Next returns rows in sort order.
func (s *Sort) Next(c *Ctx) (row.Tuple, bool, error) {
	if s.merge == nil {
		if s.pos >= len(s.rows) {
			return nil, false, nil
		}
		t := s.rows[s.pos]
		s.pos++
		return t, true, nil
	}
	if s.merge.heads.Len() == 0 {
		return nil, false, nil
	}
	head := s.merge.heads[0]
	t, err := row.DecodeCols(s.row, s.schema, head.img, nil)
	if err != nil {
		return nil, false, err
	}
	s.row = t
	c.chargeCPU(c.CPU.PerSort)
	ok, err := head.next(c)
	if err != nil {
		return nil, false, err
	}
	if ok {
		heap.Fix(&s.merge.heads, 0)
	} else {
		heap.Pop(&s.merge.heads)
	}
	return t, true, nil
}

// Close releases sort state (recycling any spill extents).
func (s *Sort) Close(c *Ctx) error {
	s.rows = nil
	s.keys = nil
	s.merge = nil
	s.releaseRuns()
	return nil
}

// releaseRuns gives the sort's TempDB space back.
func (s *Sort) releaseRuns() {
	for _, run := range s.runs {
		run.Release()
	}
	s.runs = nil
}

// TopN keeps the N smallest rows under the sort specs using a bounded
// heap when N fits the grant, matching SQL Server's Top N Sort operator;
// when N itself is too large for the grant it degrades to a full
// external Sort + Limit (the paper's Hash+Sort query does exactly this
// with its top 100,000).
type TopN struct {
	In    Op
	Specs []SortSpec
	N     int

	inner Op
}

// Schema passes through.
func (t *TopN) Schema() *row.Schema { return t.In.Schema() }

// Open picks the strategy and materializes.
func (t *TopN) Open(c *Ctx) error {
	// Estimate whether N rows fit the grant using a 256-byte row guess;
	// the executor does not track per-table averages.
	degraded := c.Grant > 0 && int64(t.N)*256 > c.Grant
	in := t.In
	if degraded {
		// A full external sort. Like SQL Server's Top N Sort for large
		// N, the whole input is sorted (all runs written and merged) and
		// the limit applies to the output.
		in = &Sort{In: t.In, Specs: t.Specs}
	}
	t.inner = nil
	// The input, once open, is closed on every way out (see HashJoin.open).
	if err := in.Open(c); err != nil {
		return err
	}
	var rows []row.Tuple
	var err error
	if degraded {
		rows, err = t.sortedTop(c, in)
	} else {
		rows, err = t.heapTop(c)
	}
	if cerr := in.Close(c); err == nil {
		err = cerr
	}
	if err != nil {
		return err
	}
	t.inner = &Values{Rows: rows, Sch: t.In.Schema()}
	return t.inner.Open(c)
}

// sortedTop drains a full sort of the input, keeping its first N rows.
func (t *TopN) sortedTop(c *Ctx, s Op) ([]row.Tuple, error) {
	kept := make([]row.Tuple, 0, t.N)
	var k keeper
	for {
		tuple, ok, err := s.Next(c)
		if err != nil || !ok {
			return kept, err
		}
		if len(kept) < t.N {
			kept = append(kept, k.keep(tuple))
		}
	}
}

// heapTop keeps the N smallest rows of the input in a bounded heap. A
// row is copied only when admitted, into the storage of the row it
// evicts once the heap is full.
func (t *TopN) heapTop(c *Ctx) ([]row.Tuple, error) {
	s := t.In.Schema()
	var top topHeap
	var key []byte // the current row's, rebuilt in place
	for {
		tuple, ok, err := t.In.Next(c)
		if err != nil {
			return nil, err
		}
		if !ok {
			break
		}
		c.chargeCPU(c.CPU.PerSort)
		key = appendSortKey(key[:0], s, t.Specs, tuple)
		if top.Len() < t.N {
			heap.Push(&top, topEntry{key: bytes.Clone(key), t: slices.Clone(tuple)})
		} else if bytes.Compare(key, top[0].key) < 0 {
			top[0].key = append(top[0].key[:0], key...)
			top[0].t = append(top[0].t[:0], tuple...)
			heap.Fix(&top, 0)
		}
	}
	rows := make([]row.Tuple, top.Len())
	for i := len(rows) - 1; i >= 0; i-- {
		rows[i] = heap.Pop(&top).(topEntry).t
	}
	return rows, nil
}

type topEntry struct {
	key []byte
	t   row.Tuple
}

// topHeap is a max-heap on key (so the root is the worst of the top N).
type topHeap []topEntry

func (h topHeap) Len() int            { return len(h) }
func (h topHeap) Less(i, j int) bool  { return bytes.Compare(h[i].key, h[j].key) > 0 }
func (h topHeap) Swap(i, j int)       { h[i], h[j] = h[j], h[i] }
func (h *topHeap) Push(x interface{}) { *h = append(*h, x.(topEntry)) }
func (h *topHeap) Pop() interface{} {
	old := *h
	n := len(old)
	v := old[n-1]
	*h = old[:n-1]
	return v
}

// Next delegates to the chosen strategy.
func (t *TopN) Next(c *Ctx) (row.Tuple, bool, error) { return t.inner.Next(c) }

// Close delegates.
func (t *TopN) Close(c *Ctx) error {
	if t.inner != nil {
		return t.inner.Close(c)
	}
	return nil
}
