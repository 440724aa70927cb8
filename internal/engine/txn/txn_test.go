package txn

import (
	"errors"
	"fmt"
	"testing"
	"time"

	"remotedb/internal/cluster"
	"remotedb/internal/sim"
	"remotedb/internal/vfs"
)

func TestAppendCommitReplay(t *testing.T) {
	k := newKernel(t, 1)
	k.Go("t", func(p *sim.Proc) {
		lm := New(k, vfs.NewMemFile("log"))
		var lsns []uint64
		for i := 0; i < 10; i++ {
			lsns = append(lsns, lm.Append(RecUpdate, []byte(fmt.Sprintf("rec-%d", i))))
		}
		if err := lm.Commit(p, lsns[9]); err != nil {
			t.Error(err)
			return
		}
		if lm.FlushedLSN() < lsns[9] {
			t.Errorf("flushed = %d, want >= %d", lm.FlushedLSN(), lsns[9])
		}
		var got []string
		err := lm.Replay(p, 0, func(r Record) error {
			got = append(got, string(r.Payload))
			return nil
		})
		if err != nil {
			t.Error(err)
			return
		}
		if len(got) != 10 || got[0] != "rec-0" || got[9] != "rec-9" {
			t.Errorf("replay = %v", got)
		}
	})
	k.Run(time.Minute)
}

func TestReplayAfterLSN(t *testing.T) {
	k := newKernel(t, 1)
	k.Go("t", func(p *sim.Proc) {
		lm := New(k, vfs.NewMemFile("log"))
		for i := 0; i < 10; i++ {
			lm.Append(RecSemCache, []byte{byte(i)})
		}
		lm.Commit(p, 10)
		count := 0
		lm.Replay(p, 5, func(r Record) error {
			count++
			if r.LSN <= 5 {
				t.Errorf("replayed LSN %d <= 5", r.LSN)
			}
			return nil
		})
		if count != 5 {
			t.Errorf("replayed %d records, want 5", count)
		}
	})
	k.Run(time.Minute)
}

func TestGroupCommit(t *testing.T) {
	// Many committers on a slow log device: flush count must be far below
	// the committer count.
	k := newKernel(t, 1)
	cfg := cluster.DefaultConfig()
	cfg.Spindles = 4
	s := cluster.NewServer(k, "db", cfg)
	lm := New(k, vfs.NewDeviceFile("log", s.HDD))
	const committers = 50
	done := sim.NewWaitGroup(k)
	done.Add(committers)
	for i := 0; i < committers; i++ {
		k.Go("c", func(p *sim.Proc) {
			lsn := lm.Append(RecCommit, []byte("payload"))
			if err := lm.Commit(p, lsn); err != nil {
				t.Error(err)
			}
			done.Done()
		})
	}
	k.Go("wait", func(p *sim.Proc) { done.Wait(p) })
	k.Run(time.Minute)
	if lm.Flushes >= committers/2 {
		t.Fatalf("flushes = %d for %d committers; group commit not batching", lm.Flushes, committers)
	}
	if lm.FlushedLSN() < uint64(committers) {
		t.Fatalf("not all commits flushed: %d", lm.FlushedLSN())
	}
}

func TestCommitNoopWhenAlreadyFlushed(t *testing.T) {
	k := newKernel(t, 1)
	k.Go("t", func(p *sim.Proc) {
		lm := New(k, vfs.NewMemFile("log"))
		lsn := lm.Append(RecUpdate, nil)
		lm.Commit(p, lsn)
		flushes := lm.Flushes
		lm.Commit(p, lsn) // already durable
		if lm.Flushes != flushes {
			t.Error("redundant commit flushed again")
		}
	})
	k.Run(time.Minute)
}

func TestReplayEmptyLog(t *testing.T) {
	k := newKernel(t, 1)
	k.Go("t", func(p *sim.Proc) {
		lm := New(k, vfs.NewMemFile("log"))
		called := false
		lm.Replay(p, 0, func(Record) error { called = true; return nil })
		if called {
			t.Error("empty log replayed records")
		}
	})
	k.Run(time.Minute)
}

// failFirstWrite is a log file whose first write fails.
type failFirstWrite struct {
	*vfs.MemFile
	failed bool
}

func (f *failFirstWrite) WriteAt(p *sim.Proc, b []byte, off int64) error {
	if !f.failed {
		f.failed = true
		return errors.New("log device: write failed")
	}
	return f.MemFile.WriteAt(p, b, off)
}

// A force that fails keeps its records: the next force writes them where
// they belong, and the durable horizon never covers a hole in the log.
func TestFailedForceLosesNoRecord(t *testing.T) {
	k := newKernel(t, 1)
	k.Go("t", func(p *sim.Proc) {
		lm := New(k, &failFirstWrite{MemFile: vfs.NewMemFile("log")})
		first := lm.Append(RecUpdate, []byte("one"))
		if err := lm.Commit(p, first); err == nil {
			t.Error("commit over a failed write reported success")
		}
		if got := lm.FlushedLSN(); got != 0 {
			t.Errorf("flushed LSN %d after the failed force, want 0", got)
		}
		second := lm.Append(RecUpdate, []byte("two"))
		if err := lm.Commit(p, second); err != nil {
			t.Error(err)
			return
		}
		if got := lm.FlushedLSN(); got != second {
			t.Errorf("flushed LSN %d, want %d", got, second)
		}
		var got []string
		if err := lm.Replay(p, 0, func(r Record) error {
			got = append(got, string(r.Payload))
			return nil
		}); err != nil {
			t.Error(err)
		}
		if fmt.Sprint(got) != "[one two]" {
			t.Errorf("replay = %v, want [one two]", got)
		}
	})
	k.Run(time.Minute)
}

// Records appended while a force is writing land after its batch, in
// order, over rounds that swap the append buffer and the written batch;
// and once both buffers have grown, an append and its force allocate
// nothing.
func TestForcesReuseTheWrittenBatch(t *testing.T) {
	k := newKernel(t, 1)
	s := cluster.NewServer(k, "db", cluster.DefaultConfig())
	lm := New(k, vfs.NewDeviceFile("log", s.HDD))
	const rounds, per = 5, 20
	var want []string
	k.Go("rounds", func(p *sim.Proc) {
		wg := sim.NewWaitGroup(k)
		for r := 0; r < rounds; r++ {
			wg.Add(per)
			for i := 0; i < per; i++ {
				payload := fmt.Sprintf("round %d record %d", r, i)
				want = append(want, payload)
				k.Go("c", func(cp *sim.Proc) {
					defer wg.Done()
					if err := lm.Commit(cp, lm.Append(RecUpdate, []byte(payload))); err != nil {
						t.Error(err)
					}
				})
			}
			wg.Wait(p)
		}
		var got []string
		if err := lm.Replay(p, 0, func(r Record) error {
			got = append(got, string(r.Payload))
			return nil
		}); err != nil {
			t.Error(err)
		}
		if fmt.Sprint(got) != fmt.Sprint(want) {
			t.Errorf("replay = %q, want %q", got, want)
		}
		if lm.Flushes < 2*rounds {
			t.Errorf("%d forces: no record was appended during a write", lm.Flushes)
		}

		mem := New(k, vfs.NewMemFile("log"))
		rec := make([]byte, 100)
		force := func() {
			if err := mem.Commit(p, mem.Append(RecUpdate, rec)); err != nil {
				t.Error(err)
			}
		}
		force()
		force()
		if a := testing.AllocsPerRun(50, force); a != 0 {
			t.Errorf("an append and its force allocate %.1f times, want 0", a)
		}
	})
	k.Run(time.Minute)
}
