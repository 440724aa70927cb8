package exec

import (
	"runtime"
	"strings"
	"testing"

	"remotedb/internal/engine/row"
	"remotedb/internal/engine/tempdb"
	"remotedb/internal/sim"
)

// A probe row read back from a grace join's partition file that finds no
// build row under its key costs no allocation: its key is read from the
// spilled image and the row is never decoded.
func TestGraceProbeMissAllocatesNothing(t *testing.T) {
	withRig(t, func(p *sim.Proc, r *rigT) {
		orders, items := loadJoinTables(t, p, r, 500)
		r.ctx.Grant = 4 << 10
		j := &HashJoin{
			Build:     &TableScan{Table: orders},
			Probe:     &TableScan{Table: items},
			BuildCols: []string{"orderkey"},
			ProbeCols: []string{"orderkey"},
		}
		if err := j.Open(r.ctx); err != nil {
			t.Fatal(err)
		}
		defer j.Close(r.ctx)
		// The first row loads a partition's build side into the table.
		if _, ok, err := j.Next(r.ctx); !ok || err != nil || !j.Spilled() {
			t.Fatalf("first row: ok=%v err=%v spilled=%v", ok, err, j.Spilled())
		}
		// Two misses that differ in every column, so a decode into the
		// join's reused row would box fresh values each time.
		var miss [2][]byte
		for i := range miss {
			img, err := row.Encode(nil, j.probeSchema, row.Tuple{int64(-1000 - i), int64(7 + i), 1.5 + float64(i)})
			if err != nil {
				t.Fatal(err)
			}
			miss[i] = img
		}
		emitted := len(j.outBuf)
		i := 0
		allocs := testing.AllocsPerRun(1000, func() {
			if err := j.probeImage(r.ctx, miss[i%2]); err != nil {
				t.Fatal(err)
			}
			i++
		})
		if allocs != 0 {
			t.Errorf("a probe row with no build match allocated %.0f times", allocs)
		}
		if len(j.outBuf) != emitted {
			t.Errorf("misses emitted %d rows", len(j.outBuf)-emitted)
		}
	})
}

// A Limit that closes a spilled Sort early abandons the merge's readers
// halfway through their runs. Releasing the runs gives the readers'
// block buffers back, so running the query again makes none. (The third
// run is the one measured: the first two also write the TempDB file's
// pages under every extent a run can land on, the tail run's included.)
func TestAbandonedSpillReadersReturnBuffers(t *testing.T) {
	withRig(t, func(p *sim.Proc, r *rigT) {
		sch := row.NewSchema(row.Column{Name: "k", Type: row.Int64}, row.Column{Name: "pad", Type: row.String})
		rows := make([]row.Tuple, 3000)
		pad := strings.Repeat("x", 1000)
		for i := range rows {
			rows[i] = row.Tuple{int64(i * 7919 % 3000), pad}
		}
		// Four runs of ~0.75 MB: every reader reads through a block buffer.
		r.ctx.Grant = 750 << 10
		q := &Limit{In: &Sort{In: &Values{Rows: rows, Sch: sch}, Specs: []SortSpec{{Col: "k"}}}, N: 10}
		run := func() uint64 {
			var m0, m1 runtime.MemStats
			runtime.ReadMemStats(&m0)
			got, err := collect(r.ctx, q)
			runtime.ReadMemStats(&m1)
			if err != nil || len(got) != 10 || got[0][0] != int64(0) || got[9][0] != int64(9) {
				t.Fatalf("limit over spilled sort: %v, %v", got, err)
			}
			return m1.TotalAlloc - m0.TotalAlloc
		}
		before := r.ctx.SpilledRuns
		run()
		if runs := r.ctx.SpilledRuns - before; runs < 3 {
			t.Fatalf("sort spilled %d runs, want several", runs)
		}
		run()
		if got := run(); got >= tempdb.BlockSize {
			t.Errorf("third run allocated %d bytes: abandoned readers kept their buffers", got)
		}
	})
}
