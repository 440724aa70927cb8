// The evict experiment measures the buffer pool's cost-aware GDSF
// eviction under a skewed working set: a Zipf-distributed access stream
// over a data set ~8x the pool, with a fraction of accesses dirtying
// pages, measures hit rate, disk faults, synchronous write-back volume,
// and elapsed (stall) time. A second lane runs a stream of short
// sequential bursts through a fixed and an adaptive readahead window.
package exp

import (
	"fmt"
	"math/rand"
	"time"

	"remotedb/internal/cluster"
	"remotedb/internal/engine/buffer"
	"remotedb/internal/engine/page"
	"remotedb/internal/sim"
	"remotedb/internal/vfs"
)

// EvictParams sizes the experiment.
type EvictParams struct {
	Frames   int     // pool size
	Pages    int     // data set size (pages)
	Accesses int     // Zipf-distributed Get()s
	Zipf     float64 // skew exponent (> 1)
	DirtyPct int     // percent of accesses that dirty the page
}

// EvictGeometry runs 20k accesses at skew 1.2 over a data set 8x the
// 256-frame pool, 10% of them writes; quick halves the pool and the data
// set and runs 5k accesses.
func EvictGeometry(quick bool) EvictParams {
	if quick {
		return EvictParams{Frames: 128, Pages: 1024, Accesses: 5000, Zipf: 1.2, DirtyPct: 10}
	}
	return EvictParams{Frames: 256, Pages: 2048, Accesses: 20000, Zipf: 1.2, DirtyPct: 10}
}

// EvictPoint is the Zipf run.
type EvictPoint struct {
	Elapsed        time.Duration
	HitRate        float64
	Hits           int64
	DiskReads      int64
	EvictDirty     int64
	WriteBackBytes int64 // synchronous eviction write-back volume
}

// RAPoint is one readahead mode's pass over the burst-scan stream.
type RAPoint struct {
	Mode       string
	Window     int   // window offered at the end of the run
	Prefetched int64 // pages installed by readahead
	Hits       int64 // prefetched pages later demanded
	Wasted     int64 // prefetched pages evicted unused
	WasteRatio float64
	Elapsed    time.Duration
}

// EvictResult is the Zipf run and the readahead comparison.
type EvictResult struct {
	GDSF EvictPoint

	// Readahead adaptation lane: the same stream of mostly-short
	// sequential bursts through a fixed prefetch window and through the
	// hit/waste-adaptive one. Short bursts make a fixed window overshoot
	// past the burst end, so the adaptive window must shrink and the
	// waste ratio must drop.
	FixedRA    RAPoint
	AdaptiveRA RAPoint
	WasteDrop  float64 // fixed - adaptive waste ratio, in points
}

// RunEvict drives the deterministic Zipf stream through a pool, then the
// burst stream through a fixed and an adaptive readahead window.
func RunEvict(seed int64, prm EvictParams) (EvictResult, error) {
	var res EvictResult
	err := RunInSim(seed, 2*time.Hour, func(p *sim.Proc) error {
		var err error
		if res.GDSF, err = evictRun(p, seed, prm); err != nil {
			return err
		}
		if res.FixedRA, err = readaheadRun(p, seed, prm, false); err != nil {
			return err
		}
		if res.AdaptiveRA, err = readaheadRun(p, seed, prm, true); err != nil {
			return err
		}
		res.WasteDrop = (res.FixedRA.WasteRatio - res.AdaptiveRA.WasteRatio) * 100
		return nil
	})
	return res, err
}

func evictRun(p *sim.Proc, seed int64, prm EvictParams) (EvictPoint, error) {
	var pt EvictPoint
	scfg := cluster.DefaultConfig()
	scfg.MemoryBytes = 256 << 20
	s := cluster.NewServer(p.Kernel(), "evict-gdsf", scfg)
	cfg := buffer.DefaultConfig(prm.Frames)
	// No lazy writer: dirty pages must be written back synchronously at
	// eviction, so the policy's dirty-victim choices show up as stall
	// time and write-back volume.
	cfg.WriterPeriod = 0
	bp, err := buffer.New(p, s, vfs.NewDeviceFile("data", s.HDD), cfg)
	if err != nil {
		return pt, err
	}
	defer bp.StopWriter()
	for i := 0; i < prm.Pages; i++ {
		h, _, err := bp.Allocate(p, page.TypeHeap)
		if err != nil {
			return pt, err
		}
		h.MarkDirty(uint64(i + 1))
		h.Release()
	}
	if err := bp.FlushAll(p); err != nil {
		return pt, err
	}
	bp.Stats = buffer.Stats{}

	// A deterministic Zipf stream.
	rng := rand.New(rand.NewSource(seed))
	zipf := rand.NewZipf(rng, prm.Zipf, 1, uint64(prm.Pages-1))
	t0 := p.Now()
	for i := 0; i < prm.Accesses; i++ {
		no := zipf.Uint64() + 1 // pages are numbered from 1
		h, err := bp.Get(p, no)
		if err != nil {
			return pt, err
		}
		if prm.DirtyPct > 0 && i%(100/prm.DirtyPct) == 0 {
			h.MarkDirty(uint64(prm.Pages + i))
		}
		h.Release()
	}
	pt.Elapsed = p.Now() - t0
	st := bp.Stats
	pt.Hits = st.Hits
	pt.DiskReads = st.DiskReads
	pt.EvictDirty = st.EvictDirty
	pt.WriteBackBytes = st.EvictWriteBytes
	if total := st.Hits + st.ExtHits + st.DiskReads; total > 0 {
		pt.HitRate = float64(st.Hits) / float64(total)
	}
	return pt, nil
}

// readaheadRun drives a stream of sequential bursts — mostly short
// range probes, occasionally a long scan leg — through a pool with the
// given readahead mode, issuing window prefetches the way the B-tree
// iterator does (engage after the first page, slow-start up to the
// pool's offered window, re-arm past the previous window). A fixed
// window keeps prefetching the full depth past every burst's end; the
// adaptive window must observe those pages dying unused and shrink.
func readaheadRun(p *sim.Proc, seed int64, prm EvictParams, adaptive bool) (RAPoint, error) {
	pt := RAPoint{Mode: "fixed"}
	if adaptive {
		pt.Mode = "adaptive"
	}
	scfg := cluster.DefaultConfig()
	scfg.MemoryBytes = 256 << 20
	s := cluster.NewServer(p.Kernel(), "ra-"+pt.Mode, scfg)
	cfg := buffer.DefaultConfig(prm.Frames)
	cfg.WriterPeriod = 0
	cfg.AdaptiveReadahead = adaptive
	bp, err := buffer.New(p, s, vfs.NewDeviceFile("radata", s.HDD), cfg)
	if err != nil {
		return pt, err
	}
	defer bp.StopWriter()
	for i := 0; i < prm.Pages; i++ {
		h, _, err := bp.Allocate(p, page.TypeHeap)
		if err != nil {
			return pt, err
		}
		h.MarkDirty(uint64(i + 1))
		h.Release()
	}
	if err := bp.FlushAll(p); err != nil {
		return pt, err
	}
	bp.Stats = buffer.Stats{}

	rng := rand.New(rand.NewSource(seed ^ 0x5eed))
	t0 := p.Now()
	for visits := 0; visits < prm.Accesses; {
		start := uint64(rng.Intn(prm.Pages-50)) + 1
		length := 2 + rng.Intn(3) // short probe: 2-4 pages
		if rng.Intn(10) == 0 {
			length = 24 + rng.Intn(25) // long scan leg
		}
		raNext := uint64(0)
		for j := 0; j < length; j++ {
			no := start + uint64(j)
			if ra := bp.ReadaheadPages(); ra > 0 && j >= 1 && no >= raNext {
				win := j + 1
				if win > ra {
					win = ra
				}
				bp.ReadAheadWindow(p, no, win)
				raNext = no + uint64(win)
			}
			h, err := bp.Get(p, no)
			if err != nil {
				return pt, err
			}
			h.Release()
			visits++
		}
	}
	pt.Elapsed = p.Now() - t0
	st := bp.Stats
	pt.Window = bp.ReadaheadPages()
	pt.Prefetched = st.ReadAheadPages
	pt.Hits = st.ReadAheadHits
	pt.Wasted = st.ReadAheadWasted
	if settled := pt.Hits + pt.Wasted; settled > 0 {
		pt.WasteRatio = float64(pt.Wasted) / float64(settled)
	}
	return pt, nil
}

// String renders one readahead row.
func (pt RAPoint) String() string {
	return fmt.Sprintf("%-8s window=%d  prefetched=%d  hit=%d  wasted=%d  waste=%.1f%%  elapsed=%v",
		pt.Mode, pt.Window, pt.Prefetched, pt.Hits, pt.Wasted,
		pt.WasteRatio*100, pt.Elapsed.Round(time.Microsecond))
}

// String renders the Zipf run's row.
func (pt EvictPoint) String() string {
	return fmt.Sprintf("gdsf   hit=%.1f%%  faults=%d  dirty-evicts=%d  writeback=%dKiB  elapsed=%v",
		pt.HitRate*100, pt.DiskReads, pt.EvictDirty,
		pt.WriteBackBytes>>10, pt.Elapsed.Round(time.Microsecond))
}

// reportEvict prints the Zipf run and the readahead comparison, and
// fails unless the adaptive readahead window wastes less than the fixed
// one and still hits.
func reportEvict(seed int64, quick bool, rep *Report) error {
	rep.Println("Cost-aware GDSF eviction under a Zipf working set with 10% writes")
	res, err := RunEvict(seed, EvictGeometry(quick))
	if err != nil {
		return err
	}
	rep.Printf("  %s\n", res.GDSF)
	rep.Printf("  readahead under short bursts:\n    %s\n    %s\n", res.FixedRA, res.AdaptiveRA)
	rep.Printf("  adaptive window: %+.1f waste points\n", -res.WasteDrop)
	rep.Metric("gdsf_hit_rate", res.GDSF.HitRate)
	rep.Metric("gdsf_disk_reads", float64(res.GDSF.DiskReads))
	rep.MetricDur("gdsf_elapsed_ms", res.GDSF.Elapsed)
	rep.Metric("gdsf_writeback_bytes", float64(res.GDSF.WriteBackBytes))
	rep.Metric("fixed_ra_waste_ratio", res.FixedRA.WasteRatio)
	rep.Metric("adaptive_ra_waste_ratio", res.AdaptiveRA.WasteRatio)
	rep.Metric("ra_waste_drop_points", res.WasteDrop)
	if res.AdaptiveRA.WasteRatio >= res.FixedRA.WasteRatio {
		return fmt.Errorf("adaptive readahead wasted %.1f%% of prefetches vs %.1f%% fixed; the window did not shrink",
			res.AdaptiveRA.WasteRatio*100, res.FixedRA.WasteRatio*100)
	}
	if res.AdaptiveRA.Hits == 0 {
		return fmt.Errorf("adaptive readahead never produced a prefetch hit; the window collapsed")
	}
	return nil
}
