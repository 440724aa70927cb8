package buffer

import (
	"testing"
	"time"

	"remotedb/internal/sim"
)

func TestReadAheadHitWasteAccounting(t *testing.T) {
	k := newKernel(t, 1)
	s, data := rig(k)
	k.Go("t", func(p *sim.Proc) {
		bp := newPool(p, s, data, 16, false)
		pages := seedPages(t, p, bp, 48)
		var absent []uint64
		for _, no := range pages {
			if !bp.InRAM(no) {
				absent = append(absent, no)
			}
			if len(absent) == 4 {
				break
			}
		}
		if len(absent) < 4 {
			t.Fatal("not enough absent pages to exercise readahead")
		}
		bp.Stats = Stats{}
		if n := bp.ReadAhead(p, absent); n != 4 {
			t.Fatalf("ReadAhead installed %d, want 4", n)
		}
		// Demanding a prefetched page settles it as a hit, once.
		for r := 0; r < 2; r++ {
			for _, no := range absent[:2] {
				h, err := bp.Get(p, no)
				if err != nil {
					t.Error(err)
					return
				}
				h.Release()
			}
		}
		if bp.Stats.ReadAheadHits != 2 {
			t.Errorf("ReadAheadHits = %d, want 2 (one per prefetched page, not per Get)", bp.Stats.ReadAheadHits)
		}
		if bp.Stats.ReadAheadWasted != 0 {
			t.Errorf("ReadAheadWasted = %d before any eviction, want 0", bp.Stats.ReadAheadWasted)
		}
		// Churn every other page through the pool until the two
		// never-demanded prefetches are evicted: they settle as waste.
		for r := 0; r < 4; r++ {
			for _, no := range pages {
				if no == absent[2] || no == absent[3] {
					continue
				}
				h, err := bp.Get(p, no)
				if err != nil {
					t.Error(err)
					return
				}
				h.Release()
			}
		}
		if bp.Stats.ReadAheadWasted != 2 {
			t.Errorf("ReadAheadWasted = %d after churn, want 2", bp.Stats.ReadAheadWasted)
		}
		if bp.Stats.ReadAheadHits != 2 {
			t.Errorf("ReadAheadHits = %d after churn, want still 2", bp.Stats.ReadAheadHits)
		}
	})
	k.Run(time.Minute)
}

func TestAdaptiveReadaheadRampsAndShrinks(t *testing.T) {
	k := newKernel(t, 1)
	s, data := rig(k)
	k.Go("t", func(p *sim.Proc) {
		cfg := DefaultConfig(64)
		cfg.WriterPeriod = 0
		bp, err := New(p, s, data, cfg)
		if err != nil {
			t.Error(err)
			return
		}
		pages := seedPages(t, p, bp, 256)
		bp.Stats = Stats{}
		if got := bp.ReadaheadPages(); got >= cfg.Readahead {
			t.Fatalf("adaptive window starts at %d, want below the %d ceiling", got, cfg.Readahead)
		}
		// A long sequential scan: every prefetched page is demanded, so
		// the window must ramp to the ceiling.
		raNext := uint64(0)
		for i, no := range pages {
			if i >= 1 && no >= raNext {
				win := bp.ReadaheadPages()
				bp.ReadAheadWindow(p, no, 0)
				raNext = no + uint64(win)
			}
			h, err := bp.Get(p, no)
			if err != nil {
				t.Error(err)
				return
			}
			h.Release()
		}
		if got := bp.ReadaheadPages(); got != cfg.Readahead {
			t.Errorf("after a sequential scan the window = %d, want ramped to %d", got, cfg.Readahead)
		}
		// Two-page probes that keep requesting the full depth: most
		// prefetched pages die unused, so the window must shrink.
		for r := 0; r < 400; r++ {
			start := pages[(r*17)%(len(pages)-10)]
			bp.ReadAheadWindow(p, start+1, 0)
			for j := uint64(0); j < 2; j++ {
				h, err := bp.Get(p, start+j)
				if err != nil {
					t.Error(err)
					return
				}
				h.Release()
			}
		}
		if got := bp.ReadaheadPages(); got > cfg.Readahead/2 {
			t.Errorf("after overshooting probes the window = %d, want shrunk to at most %d", got, cfg.Readahead/2)
		}
		if bp.Stats.ReadAheadWasted == 0 {
			t.Error("overshooting probes settled no prefetches as waste")
		}
	})
	k.Run(time.Minute)
}
