package exp

import (
	"fmt"
	"time"

	"remotedb/internal/metrics"
	"remotedb/internal/sim"
	"remotedb/internal/workload"
)

// RangeScanResult is one bar of Figures 7-10.
type RangeScanResult struct {
	Design     Design
	Spindles   int
	Throughput float64 // queries/sec
	MeanLat    time.Duration
	P95Lat     time.Duration

	ExtHits, DiskReads int64
}

// RangeScanParams tunes one RangeScan experiment run.
type RangeScanParams struct {
	UpdateFraction float64
	Spindles       int
	LocalMemBytes  int64
	BPExtBytes     int64
	RemoteServers  int
	Rows           int
	Clients        int
	Warmup         time.Duration
	Measure        time.Duration
	Hotspot        *workload.Hotspot
}

// DefaultRangeScanParams mirrors Table 4's RangeScan row (scaled).
func DefaultRangeScanParams() RangeScanParams {
	return RangeScanParams{
		Spindles:      20,
		LocalMemBytes: 32 << 20,
		BPExtBytes:    128 << 20,
		RemoteServers: 1,
		Rows:          500000,
		Clients:       80,
		Warmup:        500 * time.Millisecond,
		Measure:       time.Second,
	}
}

// RunRangeScan runs the workload on one design and returns the bar.
func RunRangeScan(seed int64, d Design, prm RangeScanParams) (*RangeScanResult, error) {
	out := &RangeScanResult{Design: d, Spindles: prm.Spindles}
	err := RunInSim(seed, 2*time.Hour, func(p *sim.Proc) error {
		cfg := DefaultBedConfig(d)
		cfg.Spindles = prm.Spindles
		cfg.LocalMemBytes = prm.LocalMemBytes
		cfg.BPExtBytes = prm.BPExtBytes
		cfg.RemoteServers = prm.RemoteServers
		cfg.TempBytes = 8 << 20
		bed, err := NewBed(p, cfg)
		if err != nil {
			return err
		}
		wcfg := workload.DefaultRangeScan()
		wcfg.Rows = prm.Rows
		wcfg.UpdateFraction = prm.UpdateFraction
		wcfg.Clients = prm.Clients
		wcfg.Hotspot = prm.Hotspot
		w, err := workload.NewRangeScan(p, bed.Eng, wcfg)
		if err != nil {
			return err
		}
		res := w.Run(p, prm.Warmup, prm.Measure)
		out.Throughput = res.Throughput()
		out.MeanLat = res.Latency.Mean()
		out.P95Lat = res.Latency.P95()
		out.ExtHits = bed.Eng.BP.Stats.ExtHits
		out.DiskReads = bed.Eng.BP.Stats.DiskReads
		bed.Close(p)
		return nil
	})
	return out, err
}

// rangeScanSweep returns the spindle counts and designs of Figures 7-10:
// every design at 4, 8 and 20 spindles, or with quick what their claims
// read — Figure 7's two designs at 4 and 20 spindles (updates > 0),
// Figure 9's six at 20.
func rangeScanSweep(quick bool, updates float64) ([]int, []Design) {
	switch {
	case !quick:
		return []int{4, 8, 20}, AllDesigns
	case updates > 0:
		return []int{4, 20}, designsFor(quick, AllDesigns)
	}
	return []int{20}, AllDesigns
}

// reportRangeScan prints Figures 7/8 (updates > 0) or 9/10: every
// design of the sweep at every spindle count.
func reportRangeScan(seed int64, quick bool, updates float64, rep *Report) error {
	if updates > 0 {
		rep.Println("Figures 7/8: RangeScan, 20% updates")
	} else {
		rep.Println("Figures 9/10: RangeScan, read-only")
	}
	rep.Printf("  %-22s %10s %14s %12s %12s\n", "design", "spindles", "queries/s", "mean lat", "p95 lat")
	spindles, designs := rangeScanSweep(quick, updates)
	for _, sp := range spindles {
		for _, d := range designs {
			prm := DefaultRangeScanParams()
			prm.Spindles, prm.UpdateFraction = sp, updates
			r, err := RunRangeScan(seed, d, prm)
			if err != nil {
				return err
			}
			rep.Printf("  %-22s %10d %14.0f %12v %12v\n", r.Design, r.Spindles,
				r.Throughput, r.MeanLat.Round(time.Microsecond), r.P95Lat.Round(time.Microsecond))
			key := fmt.Sprintf("%s/%d", r.Design, r.Spindles)
			rep.Metric(key+"/queries_per_sec", r.Throughput)
			rep.MetricDur(key+"/mean_lat_ms", r.MeanLat)
			rep.MetricDur(key+"/p95_lat_ms", r.P95Lat)
		}
	}
	return nil
}

// DrilldownResult carries the Figure 11 time series for one design.
type DrilldownResult struct {
	Design Design
	IOBps  metrics.Series // BPExt+data read throughput, bytes/sec
	CPU    metrics.Series // CPU utilization, percent
	IOLat  metrics.Series // mean BPExt read latency per window, seconds
}

// RunFig11Drilldown reproduces Figure 11: per-second I/O throughput, CPU
// utilization and I/O latency during the read-only RangeScan, for
// HDD+SSD, SMBDirect+RamDrive and Custom.
func RunFig11Drilldown(seed int64, dur time.Duration) ([]DrilldownResult, error) {
	var out []DrilldownResult
	for _, d := range []Design{DesignHDDSSD, DesignSMBDirect, DesignCustom} {
		dd := DrilldownResult{Design: d}
		err := RunInSim(seed, 2*time.Hour, func(p *sim.Proc) error {
			cfg := DefaultBedConfig(d)
			bed, err := NewBed(p, cfg)
			if err != nil {
				return err
			}
			w, err := workload.NewRangeScan(p, bed.Eng, workload.DefaultRangeScan())
			if err != nil {
				return err
			}
			k := p.Kernel()
			period := 100 * time.Millisecond

			var lastBytes int64
			var lastBusy int64
			bytesNow := func() int64 {
				ext := bed.Eng.BP.Stats.ExtHits + bed.Eng.BP.Stats.ExtWrites
				disk := bed.Eng.BP.Stats.DiskReads
				return (ext + disk) * 8192
			}
			ioSampler := workload.NewSampler(k, "io", period, func(at time.Duration) float64 {
				cur := bytesNow()
				v := float64(cur-lastBytes) / period.Seconds()
				lastBytes = cur
				return v
			})
			cpuSampler := workload.NewSampler(k, "cpu", period, func(at time.Duration) float64 {
				busy := bed.DB.CPUBusyNanos()
				v := float64(busy-lastBusy) / float64(period) / float64(bed.DB.Cores()) * 100
				lastBusy = busy
				return v
			})
			w.Run(p, 200*time.Millisecond, dur)
			ioSampler.Stop()
			cpuSampler.Stop()
			dd.IOBps = ioSampler.Series
			dd.CPU = cpuSampler.Series
			bed.Close(p)
			return nil
		})
		if err != nil {
			return nil, err
		}
		out = append(out, dd)
	}
	return out, nil
}

// Fig11Latency reports the mean page-fetch latency from the second tier
// for the three designs (the scalar behind Figure 11c's separation:
// ~13 µs for Custom vs ~272 µs for SMBDirect under load).
type Fig11Latency struct {
	Design Design
	Mean   time.Duration
}

// RunFig11Latency measures the BPExt fetch latency under full workload
// load: a side process times buffer-pool Gets of pages that are not in
// RAM when it asks, and keeps the ones that fetched the page from the
// extension themselves (Handle.FromExtension: not a hit, not a wait on a
// client's fault, not a data-file read). What it times is the fetch —
// frame, latch CPU and the transfer, queueing behind the clients
// included — not the query around it.
func RunFig11Latency(seed int64, dur time.Duration) ([]Fig11Latency, error) {
	var out []Fig11Latency
	for _, d := range []Design{DesignHDDSSD, DesignSMBDirect, DesignCustom} {
		var mean time.Duration
		err := RunInSim(seed, 2*time.Hour, func(p *sim.Proc) error {
			cfg := DefaultBedConfig(d)
			bed, err := NewBed(p, cfg)
			if err != nil {
				return err
			}
			w, err := workload.NewRangeScan(p, bed.Eng, workload.DefaultRangeScan())
			if err != nil {
				return err
			}
			// Run the workload in background, then probe fetch latency
			// from a side process while the system is loaded.
			k := p.Kernel()
			done := sim.NewWaitGroup(k)
			done.Add(1)
			k.Go("load", func(lp *sim.Proc) {
				w.Run(lp, 200*time.Millisecond, dur)
				done.Done()
			})
			p.Sleep(400 * time.Millisecond)
			hist := metrics.NewHistogram()
			probeEnd := p.Now() + dur/2
			bp := bed.Eng.BP
			for p.Now() < probeEnd {
				p.Sleep(2 * time.Millisecond)
				no := 1 + uint64(p.Rand().Int63n(int64(bp.PageCount())))
				if bp.InRAM(no) {
					continue
				}
				t0 := p.Now()
				h, err := bp.Get(p, no)
				if err != nil {
					return err
				}
				if h.FromExtension() {
					hist.Observe(p.Now() - t0)
				}
				h.Release()
			}
			mean = hist.Mean()
			done.Wait(p)
			bed.Close(p)
			return nil
		})
		if err != nil {
			return nil, err
		}
		out = append(out, Fig11Latency{Design: d, Mean: mean})
	}
	return out, nil
}

// reportFig11 prints Figure 11.
func reportFig11(seed int64, quick bool, rep *Report) error {
	dur := 2 * time.Second
	if quick {
		dur = 500 * time.Millisecond
	}
	dds, err := RunFig11Drilldown(seed, dur)
	if err != nil {
		return err
	}
	rep.Println("Figure 11: RangeScan drill-down (means over the run)")
	rep.Printf("  %-22s %14s %10s\n", "design", "I/O MB/s", "CPU %")
	for _, dd := range dds {
		rep.Printf("  %-22s %14.0f %10.1f\n", dd.Design, dd.IOBps.Mean()/1e6, dd.CPU.Mean())
		rep.Metric(dd.Design.String()+"/cpu_pct", dd.CPU.Mean())
		rep.Metric(dd.Design.String()+"/io_mb_per_sec", dd.IOBps.Mean()/1e6)
	}
	lats, err := RunFig11Latency(seed, time.Second)
	if err != nil {
		return err
	}
	rep.Println("  page-fetch latency under load (Figure 11c):")
	for _, l := range lats {
		rep.Printf("  %-22s %12v\n", l.Design, l.Mean.Round(time.Microsecond))
		rep.MetricDur(l.Design.String()+"/fetch_lat_ms", l.Mean)
	}
	return nil
}
