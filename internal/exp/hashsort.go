package exp

import (
	"fmt"
	"time"

	"remotedb/internal/metrics"
	"remotedb/internal/sim"
	"remotedb/internal/workload"
)

// Fig14Result is one bar of Figure 14a plus the drill-down series.
type Fig14Result struct {
	Design   Design
	Latency  time.Duration
	Spindles int

	JoinSpilled bool
	SortSpilled bool
	TempDBRead  int64
	TempDBWrote int64
	TempIOBps   metrics.Series // Figure 14b
	CPUUtil     metrics.Series // Figure 14c
}

// HashSortParams tunes the Hash+Sort experiment.
type HashSortParams struct {
	Spindles  int
	Cfg       workload.HashSortConfig
	MemBytes  int64 // local memory — large enough to cache the inputs
	Grant     int64 // per-query grant; small enough to force spills
	TempBytes int64
	Sample    time.Duration // drill-down sampling period (0 = none)
}

// DefaultHashSortParams mirrors Table 4's Hash+Sort row (scaled):
// 227 GB data -> 227 MB, 256 GB memory -> 256 MB, 320 GB TempDB ->
// 320 MB.
func DefaultHashSortParams() HashSortParams {
	return HashSortParams{
		Spindles:  20,
		Cfg:       workload.DefaultHashSort(),
		MemBytes:  256 << 20,
		Grant:     8 << 20,
		TempBytes: 320 << 20,
	}
}

// RunHashSort runs the Hash+Sort query once on a design.
func RunHashSort(seed int64, d Design, prm HashSortParams) (*Fig14Result, error) {
	res := &Fig14Result{Design: d, Spindles: prm.Spindles}
	err := RunInSim(seed, 2*time.Hour, func(p *sim.Proc) error {
		cfg := DefaultBedConfig(d)
		cfg.Spindles = prm.Spindles
		cfg.LocalMemBytes = prm.MemBytes
		cfg.BPExtBytes = 0 // analytics: BPExt disabled (Section 5.3)
		cfg.TempBytes = prm.TempBytes
		cfg.OLTP = false
		cfg.Engine.Grant = prm.Grant
		// Remote designs need several memory servers to hold 320 MB.
		if d.Remote() {
			cfg.RemoteServers = 2
			cfg.MRBytes = 16 << 20
		}
		bed, err := NewBed(p, cfg)
		if err != nil {
			return err
		}
		w, err := workload.NewHashSort(p, bed.Eng, prm.Cfg)
		if err != nil {
			return err
		}
		var samplers []*workload.Sampler
		if prm.Sample > 0 {
			var lastIO int64
			var lastBusy int64
			samplers = append(samplers,
				workload.NewSampler(p.Kernel(), "tempdb", prm.Sample, func(at time.Duration) float64 {
					cur := bed.Eng.Temp.BytesSpilled + bed.Eng.Temp.BytesRead
					v := float64(cur-lastIO) / prm.Sample.Seconds()
					lastIO = cur
					return v
				}),
				workload.NewSampler(p.Kernel(), "cpu", prm.Sample, func(at time.Duration) float64 {
					busy := bed.DB.CPUBusyNanos()
					v := float64(busy-lastBusy) / float64(prm.Sample) / float64(bed.DB.Cores()) * 100
					lastBusy = busy
					return v
				}),
			)
		}
		lat, ctx, err := w.Run(p)
		for _, s := range samplers {
			s.Stop()
		}
		if err != nil {
			return err
		}
		res.Latency = lat
		res.JoinSpilled = ctx.SpilledParts > 0
		res.SortSpilled = ctx.SpilledRuns > 0
		res.TempDBRead = bed.Eng.Temp.BytesRead
		res.TempDBWrote = bed.Eng.Temp.BytesSpilled
		if len(samplers) == 2 {
			res.TempIOBps = samplers[0].Series
			res.CPUUtil = samplers[1].Series
		}
		bed.Close(p)
		return nil
	})
	return res, err
}

// reportFig14 prints Figure 14a: Hash+Sort latency per design and
// spindle count.
func reportFig14(seed int64, quick bool, rep *Report) error {
	rep.Println("Figure 14: Hash+Sort latency")
	rep.Printf("  %-22s %10s %14s %10s %10s\n", "design", "spindles", "latency", "tempdb W", "tempdb R")
	for _, sp := range spindlesFor(quick) {
		for _, d := range designsFor(quick, []Design{DesignHDD, DesignHDDSSD, DesignSMB, DesignSMBDirect, DesignCustom}) {
			prm := DefaultHashSortParams()
			prm.Spindles = sp
			r, err := RunHashSort(seed, d, prm)
			if err != nil {
				return err
			}
			rep.Printf("  %-22s %10d %14v %9dM %9dM\n", r.Design, r.Spindles,
				r.Latency.Round(time.Millisecond), r.TempDBWrote>>20, r.TempDBRead>>20)
			rep.MetricDur(fmt.Sprintf("%s/%d/latency_ms", r.Design, r.Spindles), r.Latency)
		}
	}
	return nil
}
