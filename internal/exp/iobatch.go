// The iobatch experiment measures the vectored I/O path end to end:
// (A) multi-page transfers over a remote file, per-page vs batched —
// the doorbell coalescing turns one charged round trip per page into
// one per destination server; (B) buffer-pool priming with per-page vs
// burst-amortized staging copies; (C) an eviction storm driving the
// buffer pool's vectored write-back and extension-put paths, which also
// surfaces the staging-slot contention counters.
package exp

import (
	"fmt"
	"time"

	"remotedb/internal/cluster"
	"remotedb/internal/engine/buffer"
	"remotedb/internal/engine/page"
	"remotedb/internal/engine/prime"
	"remotedb/internal/sim"
	"remotedb/internal/vfs"
)

// IOBatchParams sizes the experiment.
type IOBatchParams struct {
	Pages      int // pages moved per phase-A pass
	Burst      int // vector length for batched transfers
	PrimePages int // resident pages primed in phase B
	StormPages int // dirty pages churned through the storm pool
	Frames     int // storm pool frames (kept far below StormPages)
}

// IOBatchGeometry moves 512 pages in 32-page vectors, primes a
// 1024-page pool, and storms 768 dirty pages through 64 frames; quick
// quarters the pages and halves the storm pool.
func IOBatchGeometry(quick bool) IOBatchParams {
	if quick {
		return IOBatchParams{Pages: 128, Burst: 32, PrimePages: 256, StormPages: 192, Frames: 32}
	}
	return IOBatchParams{Pages: 512, Burst: 32, PrimePages: 1024, StormPages: 768, Frames: 64}
}

// IOBatchResult reports all three phases.
type IOBatchResult struct {
	// Phase A: remote-file transfers, scalar loop vs ReadAtV/WriteAtV.
	ScalarWrite, BatchedWrite time.Duration
	ScalarRead, BatchedRead   time.Duration
	ScalarRT, BatchedRT       int64 // charged round trips per pass
	RTReduction               float64
	ReadSpeedup, WriteSpeedup float64

	// Phase B: priming pipeline, per-page vs burst staging.
	PrimeScalar, PrimeBurst time.Duration
	PrimeSpeedup            float64

	// Phase C: eviction storm.
	StormBatched     time.Duration
	StormBatchedRT   int64
	StagingWaits     int64
	StagingWaitMS    float64
	StagingHighWater int
}

// RunIOBatch runs the three phases and reports timings, charged round
// trips, and staging contention.
func RunIOBatch(seed int64, prm IOBatchParams) (IOBatchResult, error) {
	var res IOBatchResult
	err := RunInSim(seed, 2*time.Hour, func(p *sim.Proc) error {
		if err := ioBatchTransfers(p, prm, &res); err != nil {
			return err
		}
		if err := ioBatchPrime(p, prm, &res); err != nil {
			return err
		}
		if err := ioBatchStorm(p, prm, &res); err != nil {
			return err
		}
		if res.BatchedRT > 0 {
			res.RTReduction = float64(res.ScalarRT) / float64(res.BatchedRT)
		}
		if res.BatchedRead > 0 {
			res.ReadSpeedup = float64(res.ScalarRead) / float64(res.BatchedRead)
		}
		if res.BatchedWrite > 0 {
			res.WriteSpeedup = float64(res.ScalarWrite) / float64(res.BatchedWrite)
		}
		if res.PrimeBurst > 0 {
			res.PrimeSpeedup = float64(res.PrimeScalar) / float64(res.PrimeBurst)
		}
		return nil
	})
	return res, err
}

// ioBatchTransfers is phase A: move Pages pages through a framed remote
// file, once with a per-page loop and once in Burst-length vectors.
func ioBatchTransfers(p *sim.Proc, prm IOBatchParams, res *IOBatchResult) error {
	cfg := DefaultBedConfig(DesignCustom)
	cfg.FS.Integrity = true
	cfg.BPExtBytes = 0
	cfg.TempBytes = 4 << 20
	bed, err := NewBed(p, cfg)
	if err != nil {
		return err
	}
	defer bed.Close(p)
	size := int64(prm.Pages) * page.Size
	f, err := bed.FS.Create(p, "iobench", size)
	if err != nil {
		return err
	}
	if err := f.OpenConn(p); err != nil {
		return err
	}
	img := make([]byte, page.Size)
	for i := range img {
		img[i] = byte(i)
	}

	// Scalar pass: one call (one charged round trip) per page.
	rt0 := bed.FS.Client.RoundTrips
	t0 := p.Now()
	for i := 0; i < prm.Pages; i++ {
		if err := f.WriteAt(p, img, int64(i)*page.Size); err != nil {
			return err
		}
	}
	res.ScalarWrite = p.Now() - t0
	t0 = p.Now()
	for i := 0; i < prm.Pages; i++ {
		if err := f.ReadAt(p, img, int64(i)*page.Size); err != nil {
			return err
		}
	}
	res.ScalarRead = p.Now() - t0
	res.ScalarRT = bed.FS.Client.RoundTrips - rt0

	// Batched pass: Burst-length vectors through WriteAtV/ReadAtV.
	bufs := make([][]byte, prm.Burst)
	for i := range bufs {
		bufs[i] = make([]byte, page.Size)
		copy(bufs[i], img)
	}
	rt0 = bed.FS.Client.RoundTrips
	t0 = p.Now()
	for base := 0; base < prm.Pages; base += prm.Burst {
		var vecs []vfs.Vec
		for j := 0; j < prm.Burst && base+j < prm.Pages; j++ {
			vecs = append(vecs, vfs.Vec{Off: int64(base+j) * page.Size, Buf: bufs[j]})
		}
		if err := f.WriteAtV(p, vecs); err != nil {
			return err
		}
	}
	res.BatchedWrite = p.Now() - t0
	t0 = p.Now()
	for base := 0; base < prm.Pages; base += prm.Burst {
		var vecs []vfs.Vec
		for j := 0; j < prm.Burst && base+j < prm.Pages; j++ {
			vecs = append(vecs, vfs.Vec{Off: int64(base+j) * page.Size, Buf: bufs[j]})
		}
		if err := f.ReadAtV(p, vecs); err != nil {
			return err
		}
	}
	res.BatchedRead = p.Now() - t0
	res.BatchedRT = bed.FS.Client.RoundTrips - rt0
	return nil
}

// ioBatchPrime is phase B: warm a pool, then prime a cold peer twice —
// per-page staging vs burst staging.
func ioBatchPrime(p *sim.Proc, prm IOBatchParams, res *IOBatchResult) error {
	k := p.Kernel()
	scfg := cluster.DefaultConfig()
	scfg.MemoryBytes = 256 << 20
	s1 := cluster.NewServer(k, "prime-s1", scfg)
	s2 := cluster.NewServer(k, "prime-s2", scfg)
	mkPool := func(s *cluster.Server) (*buffer.Pool, error) {
		bcfg := buffer.DefaultConfig(prm.PrimePages + 8)
		bcfg.WriterPeriod = 0
		return buffer.New(p, s, vfs.NewDeviceFile("data", s.HDD), bcfg)
	}
	src, err := mkPool(s1)
	if err != nil {
		return err
	}
	for i := 0; i < prm.PrimePages; i++ {
		h, _, err := src.Allocate(p, page.TypeHeap)
		if err != nil {
			return err
		}
		h.Release()
	}
	if err := src.FlushAll(p); err != nil {
		return err
	}

	dst1, err := mkPool(s2)
	if err != nil {
		return err
	}
	st, err := prime.Prime(p, s1, s2, src, dst1)
	if err != nil {
		return err
	}
	res.PrimeScalar = st.Total()

	dst2, err := mkPool(s2)
	if err != nil {
		return err
	}
	st, err = prime.PrimeBurst(p, s1, s2, src, dst2, prime.DefaultBurst)
	if err != nil {
		return err
	}
	res.PrimeBurst = st.Total()
	return nil
}

// ioBatchStorm is phase C: churn StormPages dirty pages through a small
// pool whose extension lives in remote memory, so every eviction pays a
// write-back and queues an extension put. The lazy writer flushes
// vectors and the extension puts ship in grouped transfers; the staging
// counters record slot contention.
func ioBatchStorm(p *sim.Proc, prm IOBatchParams, res *IOBatchResult) error {
	cfg := DefaultBedConfig(DesignCustom)
	cfg.LocalMemBytes = int64(prm.Frames) * page.Size
	cfg.BPExtBytes = int64(prm.StormPages*2) * page.Size
	cfg.TempBytes = 4 << 20
	bed, err := NewBed(p, cfg)
	if err != nil {
		return err
	}
	defer bed.Close(p)
	bp := bed.Eng.BP
	rt0 := bed.FS.Client.RoundTrips
	t0 := p.Now()
	var pages []uint64
	for i := 0; i < prm.StormPages; i++ {
		h, no, err := bp.Allocate(p, page.TypeHeap)
		if err != nil {
			return err
		}
		h.MarkDirty(uint64(i + 1))
		h.Release()
		pages = append(pages, no)
	}
	// Re-read a slice of the evicted range so the storm also exercises
	// extension hits, then settle the background flushers.
	for _, no := range pages[:len(pages)/4] {
		h, err := bp.Get(p, no)
		if err != nil {
			return err
		}
		h.Release()
	}
	p.Sleep(20 * time.Millisecond)
	res.StormBatched = p.Now() - t0
	res.StormBatchedRT = bed.FS.Client.RoundTrips - rt0
	c := &bed.FS.Client.StagingContention
	res.StagingWaits = c.Waits
	res.StagingWaitMS = float64(c.WaitTime) / float64(time.Millisecond)
	res.StagingHighWater = c.HighWater
	return nil
}

// String renders the result as the human-readable table rmbench prints.
func (r IOBatchResult) String() string {
	return fmt.Sprintf(
		"transfers: scalar rt=%d batched rt=%d (%.1fx fewer)\n"+
			"  write %v -> %v (%.2fx)  read %v -> %v (%.2fx)\n"+
			"prime: %v -> %v (%.2fx)\n"+
			"storm: %v rt=%d\n"+
			"staging: waits=%d wait=%.3fms highwater=%d",
		r.ScalarRT, r.BatchedRT, r.RTReduction,
		r.ScalarWrite.Round(time.Microsecond), r.BatchedWrite.Round(time.Microsecond), r.WriteSpeedup,
		r.ScalarRead.Round(time.Microsecond), r.BatchedRead.Round(time.Microsecond), r.ReadSpeedup,
		r.PrimeScalar.Round(time.Microsecond), r.PrimeBurst.Round(time.Microsecond), r.PrimeSpeedup,
		r.StormBatched.Round(time.Microsecond), r.StormBatchedRT,
		r.StagingWaits, r.StagingWaitMS, r.StagingHighWater)
}

// reportIOBatch prints all three phases.
func reportIOBatch(seed int64, quick bool, rep *Report) error {
	rep.Println("Vectored I/O: per-page vs doorbell-batched transfers, burst")
	rep.Println("priming, and an eviction storm through the vectored pool")
	res, err := RunIOBatch(seed, IOBatchGeometry(quick))
	if err != nil {
		return err
	}
	rep.Printf("  %s\n", res)
	rep.Metric("scalar_round_trips", float64(res.ScalarRT))
	rep.Metric("batched_round_trips", float64(res.BatchedRT))
	rep.Metric("rt_reduction", res.RTReduction)
	rep.Metric("read_speedup", res.ReadSpeedup)
	rep.Metric("write_speedup", res.WriteSpeedup)
	rep.MetricDur("prime_scalar_ms", res.PrimeScalar)
	rep.MetricDur("prime_burst_ms", res.PrimeBurst)
	rep.Metric("prime_speedup", res.PrimeSpeedup)
	rep.MetricDur("storm_batched_ms", res.StormBatched)
	rep.Metric("storm_batched_round_trips", float64(res.StormBatchedRT))
	rep.Metric("staging_waits", float64(res.StagingWaits))
	rep.Metric("staging_wait_ms", res.StagingWaitMS)
	rep.Metric("staging_highwater", float64(res.StagingHighWater))
	return nil
}
