// The "scrub" experiment: silent-corruption defense under load. Two
// storms on the Custom design with K-way replicated, checksummed
// striping:
//
//  1. a corruption storm — bit flips, torn writes, and stale-replica
//     resurrections poked directly into donor memory while RangeScan
//     runs — must be fully detected (no silently wrong bytes reach the
//     engine) and repaired from a healthy replica, with zero
//     engine-visible errors;
//  2. a revocation storm — every primary stripe lease of the BPExt
//     revoked at once — must be absorbed by replica failover with zero
//     salvage invocations and zero engine-visible errors: replication
//     turns stripe loss from a degraded window into a non-event.
package exp

import (
	"time"

	"remotedb/internal/sim"
	"remotedb/internal/workload"
)

// ScrubParams tunes RunScrub.
type ScrubParams struct {
	Rows       int
	Clients    int
	Window     time.Duration // measurement window per phase
	ScrubEvery time.Duration // scrubber cadence
	Flips      int           // bit-flip injections (corruption storm)
	Tears      int           // torn-write injections
	Stales     int           // stale-replica resurrection pairs
}

// ScrubGeometry keeps the experiment fast while still landing
// corruption on both replicas of many distinct blocks. quick shrinks the
// table, clients and windows; its rows still exceed the 8 MiB buffer
// pool (~245 B/row), or the BPExt would see no traffic and the storms
// would have nothing to hit.
func ScrubGeometry(quick bool) ScrubParams {
	prm := ScrubParams{Rows: 60000, Clients: 16, Window: 250 * time.Millisecond,
		ScrubEvery: 5 * time.Millisecond, Flips: 12, Tears: 6, Stales: 4}
	if quick {
		prm.Rows, prm.Clients, prm.Window = 40000, 8, 120*time.Millisecond
	}
	return prm
}

// ScrubResult reports both storms.
type ScrubResult struct {
	// Corruption storm (K=2 + scrubber).
	Injected     int   // corruption events injected
	Detected     int64 // frames that failed verification (read path + scrub)
	Repaired     int64 // frames rewritten from a healthy copy
	Failovers    int64 // reads served by a non-primary replica
	ScrubSweeps  int64 // full stripe sweeps completed
	ScrubChecked int64 // frames the scrubber verified clean
	Poisoned     int   // blocks left with no good copy (must be 0)
	Errors       int64 // engine-visible query errors (must be 0)
	Throughput   float64
	MeanLat      time.Duration
	P95Lat       time.Duration

	// Revocation storm (K=2).
	StormStripes   int   // primary leases revoked at once
	ReplicaRepairs int64 // replicas rebuilt on fresh donors
	Salvages       int64 // salvage invocations (must be 0)
	LostStripes    int64 // whole-stripe losses (must be 0)
	StormErrors    int64 // engine-visible query errors (must be 0)
	StormHealthy   bool  // file fully re-replicated at the end
}

// scrubBedConfig is the shared geometry: Custom design, two-way
// replication (which implies integrity framing), small 1 MiB stripes so
// the BPExt spans 16+ stripes, and a background scrubber.
func scrubBedConfig(prm ScrubParams) BedConfig {
	cfg := DefaultBedConfig(DesignCustom)
	// A pool smaller than the table forces real BPExt traffic, so the
	// storms land on frames the engine actually reads back.
	cfg.LocalMemBytes = 8 << 20
	cfg.MRBytes = 1 << 20
	cfg.BPExtBytes = 16 << 20
	cfg.TempBytes = 4 << 20
	cfg.FS.Replication = 2
	cfg.FS.ScrubEvery = prm.ScrubEvery
	// Renew aggressively so replicas of cold (never-written) stripes
	// also notice revocation within the measurement window.
	cfg.Broker.LeaseTTL = 200 * time.Millisecond
	return cfg
}

// RunScrub runs both storms and returns the combined result.
func RunScrub(seed int64, prm ScrubParams) (*ScrubResult, error) {
	out := &ScrubResult{}
	if err := runCorruptionStorm(seed, prm, out); err != nil {
		return nil, err
	}
	if err := runRevocationStorm(seed, prm, out); err != nil {
		return nil, err
	}
	return out, nil
}

// runCorruptionStorm injects bit flips, torn writes, and stale-replica
// resurrections into the BPExt's stored frames — on both replicas —
// while RangeScan (with updates) runs over it.
func runCorruptionStorm(seed int64, prm ScrubParams, out *ScrubResult) error {
	return RunInSim(seed, 2*time.Hour, func(p *sim.Proc) error {
		bed, err := NewBed(p, scrubBedConfig(prm))
		if err != nil {
			return err
		}
		wcfg := workload.DefaultRangeScan()
		wcfg.Rows = prm.Rows
		wcfg.Clients = prm.Clients
		wcfg.UpdateFraction = 0.05
		w, err := workload.NewRangeScan(p, bed.Eng, wcfg)
		if err != nil {
			return err
		}
		// Warm until the BPExt holds real pages to corrupt.
		res := w.Run(p, 100*time.Millisecond, prm.Window)
		out.Errors += res.Errors

		// The storm: spread events over the first half of the window,
		// alternating replicas so both the read path (replica 0) and
		// the scrubber (replica 1, which ordinary reads never touch)
		// must detect. Stale pairs snapshot early and resurrect late,
		// leaving time for overwrites in between.
		now := p.Now()
		var events []FaultEvent
		step := prm.Window / time.Duration(2*(prm.Flips+prm.Tears+2))
		at := now + step
		for i := 0; i < prm.Flips; i++ {
			events = append(events, FaultEvent{
				At: at, Kind: FaultBitFlip, Name: "bpext", N: i * 5, Replica: i % 2,
			})
			at += step
		}
		for i := 0; i < prm.Tears; i++ {
			events = append(events, FaultEvent{
				At: at, Kind: FaultTornWrite, Name: "bpext", N: i*7 + 2, Replica: i % 2,
			})
			at += step
		}
		for i := 0; i < prm.Stales; i++ {
			events = append(events, FaultEvent{
				At: now + step/2, Kind: FaultStaleSnapshot, Name: "bpext", N: i * 11, Replica: i % 2,
			})
		}
		events = append(events, FaultEvent{
			At: now + prm.Window/2, Kind: FaultStaleRestore, Name: "bpext",
		})
		out.Injected = prm.Flips + prm.Tears + prm.Stales
		bed.InjectFaults(events)

		res = w.Run(p, 0, prm.Window)
		out.Errors += res.Errors

		// Settle: let the scrubber finish sweeping every stripe.
		p.Sleep(2 * prm.Window)

		res = w.Run(p, 0, prm.Window)
		out.Errors += res.Errors
		out.Throughput = res.Throughput()
		out.MeanLat = res.Latency.Mean()
		out.P95Lat = res.Latency.P95()

		out.Detected = bed.FS.Corruptions.N
		out.Repaired = bed.FS.Repairs.N
		out.Failovers = bed.FS.Failovers.N
		out.ScrubSweeps = bed.FS.ScrubSweeps
		out.ScrubChecked = bed.FS.ScrubChecked.N
		if f, ok := bed.FS.Lookup("bpext"); ok {
			for g := 0; g < f.Blocks(); g++ {
				if f.BlockPoisoned(g) {
					out.Poisoned++
				}
			}
		}
		bed.Close(p)
		return nil
	})
}

// runRevocationStorm revokes every primary stripe lease of the BPExt at
// once. With K=2 every read fails over to the surviving replica
// immediately — no degraded window, no salvage — and the revoked
// replicas rebuild in the background once a fresh donor replenishes the
// pool.
func runRevocationStorm(seed int64, prm ScrubParams, out *ScrubResult) error {
	return RunInSim(seed, 2*time.Hour, func(p *sim.Proc) error {
		cfg := scrubBedConfig(prm)
		bed, err := NewBed(p, cfg)
		if err != nil {
			return err
		}
		wcfg := workload.DefaultRangeScan()
		wcfg.Rows = prm.Rows
		wcfg.Clients = prm.Clients
		wcfg.UpdateFraction = 0.05
		w, err := workload.NewRangeScan(p, bed.Eng, wcfg)
		if err != nil {
			return err
		}
		res := w.Run(p, 100*time.Millisecond, prm.Window)
		out.StormErrors += res.Errors

		f, ok := bed.FS.Lookup("bpext")
		if !ok {
			bed.Close(p)
			return nil
		}
		out.StormStripes = len(f.LeaseIDs())

		// Revoke every primary at once; replenish the donor pool shortly
		// after so the background replica rebuilds have regions to lease
		// (the revoked MRs are destroyed).
		now := p.Now()
		bed.InjectFaults([]FaultEvent{
			{At: now + 20*time.Millisecond, Kind: FaultRevokeFile, Name: "bpext"},
			{At: now + 30*time.Millisecond, Kind: FaultReplenish, N: out.StormStripes + 2},
		})
		res = w.Run(p, 0, prm.Window)
		out.StormErrors += res.Errors

		// Settle: scrubber re-kicks any rebuild that raced the
		// replenishment.
		p.Sleep(2 * prm.Window)
		res = w.Run(p, 0, prm.Window)
		out.StormErrors += res.Errors

		out.ReplicaRepairs = bed.FS.ReplicaRepairs
		out.Salvages = bed.FS.Salvages
		out.LostStripes = bed.FS.LostStripes
		out.StormHealthy = !f.Degraded() && !f.Unavailable()
		bed.Close(p)
		return nil
	})
}

// reportScrub prints both storms.
func reportScrub(seed int64, quick bool, rep *Report) error {
	rep.Println("Scrub (Custom design, 2-way replicated + checksummed striping):")
	rep.Println("a storm of bit flips, torn writes, and stale-replica resurrections")
	rep.Println("poked into donor memory mid-RangeScan, then a full-file primary")
	rep.Println("revocation storm. Every corruption must be detected and repaired")
	rep.Println("from a replica; the revocations must need no salvage.")
	res, err := RunScrub(seed, ScrubGeometry(quick))
	if err != nil {
		return err
	}
	rep.Printf("  corruption storm: injected=%d detected=%d repaired=%d failovers=%d\n",
		res.Injected, res.Detected, res.Repaired, res.Failovers)
	rep.Printf("  scrubber: sweeps=%d frames-verified=%d poisoned=%d\n",
		res.ScrubSweeps, res.ScrubChecked, res.Poisoned)
	rep.Printf("  engine-visible errors: %d   throughput=%.0f q/s  mean=%v p95=%v\n",
		res.Errors, res.Throughput, res.MeanLat.Round(time.Microsecond), res.P95Lat.Round(time.Microsecond))
	rep.Printf("  revocation storm: stripes=%d replica-rebuilds=%d salvages=%d lost=%d errors=%d healthy=%v\n",
		res.StormStripes, res.ReplicaRepairs, res.Salvages, res.LostStripes,
		res.StormErrors, res.StormHealthy)
	rep.Metric("injected", float64(res.Injected))
	rep.Metric("detected", float64(res.Detected))
	rep.Metric("repaired", float64(res.Repaired))
	rep.Metric("failovers", float64(res.Failovers))
	rep.Metric("scrub_sweeps", float64(res.ScrubSweeps))
	rep.Metric("scrub_checked", float64(res.ScrubChecked))
	rep.Metric("poisoned", float64(res.Poisoned))
	rep.Metric("errors", float64(res.Errors))
	rep.Metric("queries_per_sec", res.Throughput)
	rep.MetricDur("mean_lat_ms", res.MeanLat)
	rep.MetricDur("p95_lat_ms", res.P95Lat)
	rep.Metric("storm_stripes", float64(res.StormStripes))
	rep.Metric("replica_rebuilds", float64(res.ReplicaRepairs))
	rep.Metric("storm_salvages", float64(res.Salvages))
	rep.Metric("storm_lost_stripes", float64(res.LostStripes))
	rep.Metric("storm_errors", float64(res.StormErrors))
	rep.MetricBool("storm_healthy", res.StormHealthy)
	return nil
}
