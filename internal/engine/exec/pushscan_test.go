package exec

import (
	"fmt"
	"testing"

	"remotedb/internal/engine/catalog"
	"remotedb/internal/engine/row"
	"remotedb/internal/engine/tempdb"
	"remotedb/internal/rmem"
	"remotedb/internal/sim"
	"remotedb/internal/vfs"
)

// fakePushFile is an in-memory pushable segment store: PushRead runs
// the real evaluator chunk by chunk (as a donor would), ReadAt serves
// the raw log. pushErr simulates pushdown being unavailable.
type fakePushFile struct {
	data    []byte
	chunk   int
	pushErr error
	pushes  int
	fetches int
}

func (f *fakePushFile) PushChunk() int { return f.chunk }

func (f *fakePushFile) ReadAt(p *sim.Proc, b []byte, off int64) error {
	f.fetches++
	copy(b, f.data[off:off+int64(len(b))])
	return nil
}

func (f *fakePushFile) PushRead(p *sim.Proc, off, n int64, q *rmem.PushQuery) ([]byte, rmem.PushStats, error) {
	var stats rmem.PushStats
	if f.pushErr != nil {
		return nil, stats, f.pushErr
	}
	f.pushes++
	var out []byte
	for o := off; o < off+n; o += int64(f.chunk) {
		end := o + int64(f.chunk)
		if end > off+n {
			end = off + n
		}
		res, rows, matched, err := rmem.EvalPush(f.data[o:end], q, out)
		if err != nil {
			return nil, stats, err
		}
		out = res
		stats.RowsScanned += int64(rows)
		stats.RowsMatched += int64(matched)
	}
	stats.BytesScanned = n
	stats.BytesReturned = int64(len(out))
	return out, stats, nil
}

// attachSegment mirrors the table's rows (given in PK order) into a
// fake pushable segment.
func attachSegment(t *testing.T, tbl *catalog.Table, rows []row.Tuple, chunk int) *fakePushFile {
	t.Helper()
	var seg []byte
	for _, r := range rows {
		img, err := row.Encode(nil, tbl.Schema, r)
		if err != nil {
			t.Fatal(err)
		}
		seg = rmem.AppendPushRecord(seg, img, chunk)
	}
	seg = rmem.PadPushChunk(seg, chunk)
	f := &fakePushFile{data: seg, chunk: chunk}
	tbl.SetPushSegment(&catalog.PushSegment{File: f, Rows: int64(len(rows)), Bytes: int64(len(seg)), Chunk: chunk})
	return f
}

func ordersRows(n int) []row.Tuple {
	var rows []row.Tuple
	for i := 0; i < n; i++ {
		rows = append(rows, row.Tuple{int64(i), int64(i % 100), float64(i)})
	}
	return rows
}

func custLT(n int64) *rmem.PushQuery {
	return &rmem.PushQuery{
		Cols:  []rmem.FieldKind{rmem.FieldInt64, rmem.FieldInt64, rmem.FieldFloat64},
		Preds: []rmem.PushLeaf{{Col: 1, Op: rmem.PushLT, Int: n}},
	}
}

func TestPushScanMatchesFilteredTableScan(t *testing.T) {
	withRig(t, func(p *sim.Proc, r *rigT) {
		orders, _ := loadJoinTables(t, p, r, 1000)
		attachSegment(t, orders, ordersRows(1000), 4096)
		want, err := collect(r.ctx, &Filter{
			In:   &TableScan{Table: orders},
			Pred: func(tp row.Tuple) bool { return tp[1].(int64) < 10 },
		})
		if err != nil {
			t.Fatal(err)
		}
		got, err := collect(r.ctx, &PushScan{Table: orders, Query: custLT(10)})
		if err != nil {
			t.Fatal(err)
		}
		if len(got) != len(want) {
			t.Fatalf("push scan rows=%d, table scan rows=%d", len(got), len(want))
		}
		for i := range want {
			if fmt.Sprint(got[i]) != fmt.Sprint(want[i]) {
				t.Fatalf("row %d: got %v want %v", i, got[i], want[i])
			}
		}
	})
}

func TestPushScanProjection(t *testing.T) {
	withRig(t, func(p *sim.Proc, r *rigT) {
		orders, _ := loadJoinTables(t, p, r, 200)
		attachSegment(t, orders, ordersRows(200), 4096)
		q := custLT(5)
		q.Proj = []int{0, 2}
		s := &PushScan{Table: orders, Query: q}
		if got := s.Schema().Columns[1].Name; got != "total" {
			t.Fatalf("projected schema col = %q, want total", got)
		}
		rows, err := collect(r.ctx, s)
		if err != nil {
			t.Fatal(err)
		}
		for _, tp := range rows {
			if len(tp) != 2 {
				t.Fatalf("projected arity %d, want 2", len(tp))
			}
		}
		if len(rows) != 10 {
			t.Fatalf("rows=%d, want 10", len(rows))
		}
	})
}

func TestPushScanParallelPartitionsPreserveOrder(t *testing.T) {
	withRig(t, func(p *sim.Proc, r *rigT) {
		orders, _ := loadJoinTables(t, p, r, 2000)
		f := attachSegment(t, orders, ordersRows(2000), 512)
		s := &PushScan{Table: orders, Query: custLT(100), DOP: 4}
		rows, err := collect(r.ctx, s)
		if err != nil {
			t.Fatal(err)
		}
		if len(rows) != 2000 {
			t.Fatalf("rows=%d, want all 2000", len(rows))
		}
		for i, tp := range rows {
			if tp[0].(int64) != int64(i) {
				t.Fatalf("row %d has orderkey %d: partition merge broke PK order", i, tp[0])
			}
		}
		if f.pushes != 4 {
			t.Errorf("pushes=%d, want one per partition (4)", f.pushes)
		}
	})
}

func TestPushScanFallsBackToFetchAll(t *testing.T) {
	withRig(t, func(p *sim.Proc, r *rigT) {
		orders, _ := loadJoinTables(t, p, r, 500)
		f := attachSegment(t, orders, ordersRows(500), 4096)
		f.pushErr = rmem.ErrPushUnavailable
		s := &PushScan{Table: orders, Query: custLT(10)}
		rows, err := collect(r.ctx, s)
		if err != nil {
			t.Fatalf("fallback surfaced an error: %v", err)
		}
		if len(rows) != 50 {
			t.Fatalf("rows=%d, want 50", len(rows))
		}
		if s.Fallbacks == 0 || f.fetches == 0 {
			t.Errorf("fallbacks=%d fetches=%d, want the fetch-all path", s.Fallbacks, f.fetches)
		}
	})
}

func TestPushScanWithoutSegmentDegradesToTableScan(t *testing.T) {
	withRig(t, func(p *sim.Proc, r *rigT) {
		orders, _ := loadJoinTables(t, p, r, 300)
		q := custLT(7)
		q.Proj = []int{1}
		rows, err := collect(r.ctx, &PushScan{Table: orders, Query: q})
		if err != nil {
			t.Fatal(err)
		}
		if len(rows) != 21 {
			t.Fatalf("rows=%d, want 21", len(rows))
		}
		for _, tp := range rows {
			if len(tp) != 1 || tp[0].(int64) >= 7 {
				t.Fatalf("degraded path returned %v", tp)
			}
		}
	})
}

func TestHashJoinRemoteProbeMatchesGrace(t *testing.T) {
	run := func(remote bool) ([]row.Tuple, error) {
		var rows []row.Tuple
		var err error
		withRig(t, func(p *sim.Proc, r *rigT) {
			orders, items := loadJoinTables(t, p, r, 800)
			r.ctx.Grant = 16 << 10 // force the spill
			r.ctx.Temp = tempdb.New(vfs.NewMemFile("td"))
			j := &HashJoin{
				Build: &TableScan{Table: orders}, Probe: &TableScan{Table: items},
				BuildCols: []string{"orderkey"}, ProbeCols: []string{"orderkey"},
				RemoteProbe: remote,
			}
			rows, err = collect(r.ctx, j)
			if err != nil {
				return
			}
			if !j.Spilled() {
				t.Error("join did not spill; the comparison is vacuous")
			}
			// Under remote probing the probe side must never be
			// partitioned to TempDB.
			if remote && j.probeFiles != nil {
				t.Error("remote probe partitioned the probe side")
			}
		})
		return rows, err
	}
	got, err := run(true)
	if err != nil {
		t.Fatal(err)
	}
	want, err := run(false)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != len(want) || len(got) != 2400 {
		t.Fatalf("remote=%d grace=%d rows, want 2400", len(got), len(want))
	}
	key := func(tp row.Tuple) string { return fmt.Sprint(tp) }
	seen := make(map[string]int)
	for _, tp := range want {
		seen[key(tp)]++
	}
	for _, tp := range got {
		if seen[key(tp)] == 0 {
			t.Fatalf("remote probe invented row %v", tp)
		}
		seen[key(tp)]--
	}
}
