package exec

import (
	"errors"
	"testing"

	"remotedb/internal/engine/tempdb"
	"remotedb/internal/fault"
	"remotedb/internal/sim"
	"remotedb/internal/testkit"
	"remotedb/internal/vfs"
)

// A join whose partitions need more extents than the TempDB file holds
// fails with a classified error and leaves the TempDB usable: the next,
// smaller spill gets the space back.
func TestSpillPastTempDBIsClassifiedAndRecoverable(t *testing.T) {
	withRig(t, func(p *sim.Proc, r *rigT) {
		orders, items := loadJoinTables(t, p, r, 500)
		r.ctx.Temp = tempdb.New(&testkit.FixedFile{MemFile: vfs.NewMemFile("td"), Limit: 8 << 20}) // two extents
		r.ctx.Grant = 4 << 10
		join := func(partitions int) (int64, error) {
			return Run(r.ctx, &HashJoin{
				Build:      &TableScan{Table: orders},
				Probe:      &TableScan{Table: items},
				BuildCols:  []string{"orderkey"},
				ProbeCols:  []string{"orderkey"},
				Partitions: partitions,
			})
		}
		_, err := join(8) // one extent per partition file: sixteen
		if !errors.Is(err, tempdb.ErrFull) || !errors.Is(err, fault.ErrUnavailable) {
			t.Errorf("oversized spill: %v, want tempdb.ErrFull (fault.ErrUnavailable)", err)
		}
		for i := 0; i < 3; i++ { // and again: nothing leaks from one query to the next
			if n, err := join(1); err != nil || n != 1500 {
				t.Errorf("join that fits, run %d: n=%d err=%v", i, n, err)
			}
		}
		r.ctx.Grant = 8 << 10
		if n, err := Run(r.ctx, &Sort{In: &TableScan{Table: items}, Specs: []SortSpec{{Col: "price"}}}); !errors.Is(err, tempdb.ErrFull) {
			t.Errorf("sort of many runs: n=%d err=%v, want tempdb.ErrFull", n, err)
		}
		if n, err := join(1); err != nil || n != 1500 {
			t.Errorf("join after the failed sort: n=%d err=%v", n, err)
		}
	})
}

// An operator whose Open fails after it opened an input closes that
// input: nobody closes an operator that failed to open, and a parallel
// scan left open keeps its producer procs parked on their full queues
// until the kernel goes. The join fails while partitioning the probe
// side, the sort while reading its input; either way the count of live
// procs is back where it started with the kernel still running.
func TestFailedOpenClosesItsInputs(t *testing.T) {
	withRig(t, func(p *sim.Proc, r *rigT) {
		orders, items := loadJoinTables(t, p, r, 10000)
		r.ctx.Temp = tempdb.New(&testkit.FixedFile{MemFile: vfs.NewMemFile("td"), Limit: 4 << 20}) // one extent
		r.ctx.Grant = 4 << 10
		ops := map[string]func() Op{
			// The build side's one partition file takes the extent; the
			// probe file's first full block, 18 000 rows in, finds none.
			"join": func() Op {
				return &HashJoin{
					Build:      &TableScan{Table: orders},
					Probe:      &ParallelScan{Table: items, DOP: 4},
					BuildCols:  []string{"orderkey"},
					ProbeCols:  []string{"orderkey"},
					Partitions: 1,
				}
			},
			// The second run finds no extent.
			"sort": func() Op {
				return &Sort{In: &ParallelScan{Table: items, DOP: 4}, Specs: []SortSpec{{Col: "price"}}}
			},
		}
		for _, name := range []string{"join", "sort"} {
			before := p.Kernel().LiveProcs()
			if _, err := Run(r.ctx, ops[name]()); !errors.Is(err, tempdb.ErrFull) {
				t.Errorf("%s: %v, want tempdb.ErrFull", name, err)
			}
			if n := p.Kernel().LiveProcs(); n != before {
				t.Errorf("%s: %d live procs after the failed open, %d before: producers left parked", name, n, before)
			}
		}
	})
}
