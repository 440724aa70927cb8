// Chaos harness for the tail-tolerance layer: the 200+-participant
// cluster bed from cluster.go is driven through three scenarios that a
// merely-reactive fault ladder cannot survive gracefully:
//
//  1. Slow donors — a handful of donors serve every transfer with
//     millisecond-scale injected delay (reclaiming under pressure,
//     NIC-saturated). Run twice from the same seed, hedging off vs on,
//     to measure how much of the read tail hedged reads claw back.
//  2. Reclamation storm — the diurnal wave from the cluster benchmark,
//     but with the full tail-tolerance stack (deadline budgets, hedged
//     reads, donor health scoring) engaged while leases are shed.
//  3. Flapping donor — one donor oscillates between slow and healthy,
//     exercising the breaker's brownout, probe, and recovery arcs.
//
// The harness asserts the tentpole's contract: zero engine-visible
// errors everywhere, hedging cuts the slow-donor read p99 by at least
// HedgeGain, the hedge rate stays under its cap, p99 stays bounded
// through the storm, and throughput recovers to near baseline after
// the storm clears.

package exp

import (
	"fmt"
	"time"

	"remotedb/internal/broker"
	"remotedb/internal/core"
	"remotedb/internal/metrics"
	"remotedb/internal/sim"
)

// ChaosParams sizes the chaos harness.
type ChaosParams struct {
	Shards    int // broker shards
	Donors    int // memory servers donating MRs
	Holders   int // database servers (participants = Holders + Donors)
	MRBytes   int
	DonorMRs  int
	FileBytes int64

	Replication    int           // replicas per stripe (hedging needs >= 2)
	DeadlineBudget time.Duration // per-op budget in the storm/flap scenarios
	HedgeRateCap   float64       // max fraction of tolerant reads hedged

	LeaseTTL       time.Duration
	HeartbeatEvery time.Duration
	ExpireEvery    time.Duration
	Measure        time.Duration // per measurement window

	SlowDonors int           // donors slowed in the slow-donor scenario
	SlowBy     time.Duration // injected per-transfer service delay
	// WarmReads/ReadsPerHolder size the fixed-workload slow-donor A/B:
	// every holder does WarmReads unmeasured reads (hedge thresholds
	// need per-donor p95 samples), then ReadsPerHolder measured ones.
	WarmReads      int
	ReadsPerHolder int

	StormPulses int
	StormFrac   float64

	FlapCycles int           // slow/healthy oscillations of the flapping donor
	FlapPeriod time.Duration // one full oscillation
	FlapBy     time.Duration // injected delay during the slow half

	// HedgeGain is the minimum factor by which hedging must cut the
	// slow-donor read p99 vs the hedging-off arm.
	HedgeGain float64
}

// ChaosGeometry: the cluster bed's geometry (160 holders + 48 donors =
// 208 participants on a 4-shard broker) with 2-way replicated stripes so
// hedges and failover have somewhere to go. quick shrinks the bed and
// the measurement windows; testdata/quick/chaos.txt pins the quick run.
func ChaosGeometry(quick bool) ChaosParams {
	prm := ChaosParams{
		Shards:         4,
		Donors:         48,
		Holders:        160,
		MRBytes:        128 << 10,
		DonorMRs:       64,
		FileBytes:      1 << 20,
		Replication:    2,
		DeadlineBudget: 10 * time.Millisecond,
		HedgeRateCap:   0.25,
		LeaseTTL:       120 * time.Millisecond,
		HeartbeatEvery: 40 * time.Millisecond,
		ExpireEvery:    60 * time.Millisecond,
		Measure:        200 * time.Millisecond,
		SlowDonors:     3,
		SlowBy:         2 * time.Millisecond,
		WarmReads:      200,
		ReadsPerHolder: 400,
		StormPulses:    3,
		StormFrac:      0.10,
		FlapCycles:     3,
		FlapPeriod:     80 * time.Millisecond,
		FlapBy:         2 * time.Millisecond,
		HedgeGain:      2.0,
	}
	if quick {
		prm.Holders = 48
		prm.Donors = 16
		prm.SlowDonors = 1
		prm.Measure = 60 * time.Millisecond
		prm.HeartbeatEvery = 20 * time.Millisecond
		prm.WarmReads = 150
		prm.ReadsPerHolder = 300
	}
	return prm
}

// ChaosArm is one measured window of one scenario.
type ChaosArm struct {
	P50, P99    time.Duration
	BytesPerSec float64
	Reads       int64
}

// ChaosResult is everything the chaos harness reports.
type ChaosResult struct {
	Participants int

	// Slow-donor A/B (same seed): hedging off vs on.
	SlowOff   ChaosArm
	SlowOn    ChaosArm
	HedgeCut  float64 // SlowOff.P99 / SlowOn.P99
	HedgeRate float64 // hedged / tolerant reads in the on arm
	Hedged    int64
	HedgeWins int64
	Tolerant  int64

	// Reclamation storm with the full tail-tolerance stack.
	Healthy         ChaosArm
	Storm           ChaosArm
	Recovered       ChaosArm
	LiveBefore      int
	Shed            int
	StormSlow       int64 // reads abandoned on a blown budget during the storm run
	StormMisses     int64 // rmem transfers abandoned at/before issue
	StormHedged     int64
	StormMigrations int64 // replicas proactively moved off quarantined donors
	Fallbacks       int64 // reads served from local base data across all scenarios

	// Flapping donor: breaker arcs.
	FlapBrownouts   int64
	FlapQuarantines int64
	FlapProbes      int64
	FlapRecoveries  int64
	HealthReports   int64 // slow-donor reports piggybacked on heartbeats

	Errors int64 // engine-visible errors across every scenario (must be 0)
}

// bed returns the chaos bed: the cluster bed's shape without tenant
// quotas, with replicated, populated holder files. set adjusts the
// holders' FS config for one scenario.
//
// Holder machines get a deeper core pool than the Table 3 default: an
// abandoned hedge loser holds an initiator slot until the slow donor
// finally answers, and under a 2ms injected delay tens of orphans can
// be in flight at once. With only 40 cores those orphans exhaust the
// client and every read — hedged or not — queues behind them for the
// full injected delay, which is exactly the head-of-line blocking the
// hedge exists to avoid.
func (prm ChaosParams) bed(set func(cfg *core.Config)) clusterBed {
	bcfg := broker.DefaultConfig()
	bcfg.LeaseTTL = prm.LeaseTTL
	fsCfg := core.DefaultConfig()
	fsCfg.HeartbeatEvery = prm.HeartbeatEvery
	fsCfg.Replication = prm.Replication
	fsCfg.HedgeRateCap = prm.HedgeRateCap
	set(&fsCfg)
	return clusterBed{shards: prm.Shards, donors: prm.Donors, holders: prm.Holders,
		mrBytes: prm.MRBytes, donorMRs: prm.DonorMRs, fileBytes: prm.FileBytes,
		expireEvery: prm.ExpireEvery, broker: bcfg, fs: fsCfg, holderCores: 256, populate: true}
}

// arm summarizes one measured window.
func arm(h *metrics.Histogram, bytes int64, win time.Duration) ChaosArm {
	return ChaosArm{
		P50:         h.Quantile(0.5),
		P99:         h.Quantile(0.99),
		BytesPerSec: float64(bytes) / win.Seconds(),
		Reads:       h.Count(),
	}
}

// runChaosSlowDonor runs the slow-donor scenario with hedging on or
// off: an unmeasured warm-up round (hedge thresholds need per-donor
// p95 samples), then prm.SlowDonors donors go slow and every holder
// performs ReadsPerHolder measured reads.
func runChaosSlowDonor(seed int64, prm ChaosParams, hedging bool, res *ChaosResult) (ChaosArm, error) {
	var out ChaosArm
	err := RunInSim(seed, time.Hour, func(p *sim.Proc) error {
		c, donors, hs, err := buildClusterBed(p, prm.bed(func(cfg *core.Config) {
			cfg.Hedging = hedging
			cfg.HealthChecks = false // isolate hedging in the A/B
		}))
		if err != nil {
			return err
		}
		ld := newHolderLoad(1)
		driveHolders(p, hs, prm.WarmReads, 0, func(time.Duration) int { return -1 }, ld)
		// Scatter the slow donors across the fleet instead of slowing
		// donors[0..n]: spread placement hands a stripe's replicas to
		// *adjacent* donors in round-robin order, so co-slowing adjacent
		// donors builds stripes with no healthy replica — a correlated
		// rack failure no read strategy can hedge around. The scenario
		// models independently slow machines (reclaiming, NIC-saturated),
		// which hedging is designed for.
		stride := 1
		if prm.SlowDonors > 0 {
			stride = len(donors) / prm.SlowDonors
			if stride < 1 {
				stride = 1
			}
		}
		for i := 0; i < prm.SlowDonors && i < len(donors); i++ {
			donors[(i*stride)%len(donors)].SetServiceDelay(prm.SlowBy)
		}
		start := p.Now()
		driveHolders(p, hs, prm.ReadsPerHolder, 0, oneWindow, ld)
		out = arm(ld.hists[0], ld.bytes[0], p.Now()-start)
		res.Fallbacks += ld.fallbacks
		res.Errors += ld.errs
		if hedging {
			for _, h := range hs {
				res.Hedged += h.fs.HedgedReads
				res.HedgeWins += h.fs.HedgeWins
				res.Tolerant += h.fs.TolerantReads
			}
		}
		closeClusterBed(p, c, hs)
		return nil
	})
	return out, err
}

// runChaosStorm runs the reclamation wave with the full tail-tolerance
// stack engaged: deadline budgets, hedged reads, and health scoring all
// on while StormPulses×StormFrac of the live leases are shed.
func runChaosStorm(seed int64, prm ChaosParams, res *ChaosResult) error {
	return RunInSim(seed, time.Hour, func(p *sim.Proc) error {
		c, _, hs, err := buildClusterBed(p, prm.bed(func(cfg *core.Config) {
			cfg.Hedging = true
			cfg.HealthChecks = true
			cfg.DeadlineBudget = prm.DeadlineBudget
		}))
		if err != nil {
			return err
		}
		end, window := reclamationWave(p, c, prm.Measure, prm.StormPulses, prm.StormFrac, &res.LiveBefore, &res.Shed)
		ld := newHolderLoad(3)
		driveHolders(p, hs, 0, end, window, ld)
		res.Healthy = arm(ld.hists[0], ld.bytes[0], prm.Measure)
		res.Storm = arm(ld.hists[1], ld.bytes[1], prm.Measure)
		res.Recovered = arm(ld.hists[2], ld.bytes[2], prm.Measure)
		res.Fallbacks += ld.fallbacks
		res.Errors += ld.errs
		for _, h := range hs {
			res.StormSlow += h.fs.SlowReads
			res.StormMisses += h.fs.Client.DeadlineMisses
			res.StormHedged += h.fs.HedgedReads
			res.StormMigrations += h.fs.ProactiveMigrations
		}
		closeClusterBed(p, c, hs)
		return nil
	})
}

// runChaosFlap oscillates one donor between slow and healthy through
// FlapCycles, then gives the breakers a quiet window to probe it back
// to healthy. Recovery is probe-driven (the asymmetric p95 tracker
// cannot drift back down), so the quiet window must cover several
// probe intervals. Stripe repair is disabled for this scenario so the
// flapping donor keeps its replicas and stays probeable — with
// proactive restripe on, a quarantined donor would simply be evacuated
// (scenario 2 covers that arc).
func runChaosFlap(seed int64, prm ChaosParams, res *ChaosResult) error {
	return RunInSim(seed, time.Hour, func(p *sim.Proc) error {
		c, donors, hs, err := buildClusterBed(p, prm.bed(func(cfg *core.Config) {
			cfg.Hedging = true
			cfg.HealthChecks = true
			cfg.DeadlineBudget = prm.DeadlineBudget
			cfg.Recover = false
		}))
		if err != nil {
			return err
		}
		k := p.Kernel()
		t0 := p.Now()
		t1 := t0 + prm.Measure/2 // warm-up: health baselines need samples
		flapEnd := t1 + time.Duration(prm.FlapCycles)*prm.FlapPeriod
		quiet := prm.Measure
		if min := 5 * prm.HeartbeatEvery; quiet < min {
			quiet = min // >= recoverProbes probe intervals
		}
		end := flapEnd + quiet
		k.Go("chaos-flap", func(sp *sim.Proc) {
			sp.Sleep(t1 - sp.Now())
			for i := 0; i < prm.FlapCycles; i++ {
				donors[0].SetServiceDelay(prm.FlapBy)
				sp.Sleep(prm.FlapPeriod / 2)
				donors[0].SetServiceDelay(0)
				sp.Sleep(prm.FlapPeriod / 2)
			}
		})
		ld := newHolderLoad(1)
		driveHolders(p, hs, 0, end, oneWindow, ld)
		res.Fallbacks += ld.fallbacks
		res.Errors += ld.errs
		for _, h := range hs {
			res.FlapBrownouts += h.fs.Brownouts
			res.FlapQuarantines += h.fs.Quarantines
			res.FlapProbes += h.fs.HealthProbes
			res.FlapRecoveries += h.fs.HealthRecoveries
		}
		res.HealthReports = c.HealthReports()
		closeClusterBed(p, c, hs)
		return nil
	})
}

// RunChaos runs all three scenarios and asserts the tail-tolerance
// contract. Every scenario shares the seed, so the slow-donor A/B is a
// true same-workload comparison.
func RunChaos(seed int64, prm ChaosParams) (*ChaosResult, error) {
	res := &ChaosResult{Participants: prm.Holders + prm.Donors}

	// Scenario 1: slow donors, hedging off vs on.
	off, err := runChaosSlowDonor(seed, prm, false, res)
	if err != nil {
		return nil, err
	}
	on, err := runChaosSlowDonor(seed, prm, true, res)
	if err != nil {
		return nil, err
	}
	res.SlowOff, res.SlowOn = off, on
	if on.P99 > 0 {
		res.HedgeCut = float64(off.P99) / float64(on.P99)
	}
	if res.Tolerant > 0 {
		res.HedgeRate = float64(res.Hedged) / float64(res.Tolerant)
	}
	if res.HedgeCut < prm.HedgeGain {
		return nil, fmt.Errorf("hedging cut slow-donor p99 only %.2fx (off %v, on %v); want >= %.1fx",
			res.HedgeCut, off.P99, on.P99, prm.HedgeGain)
	}
	if res.HedgeRate > prm.HedgeRateCap+0.01 {
		return nil, fmt.Errorf("hedge rate %.3f exceeds cap %.3f", res.HedgeRate, prm.HedgeRateCap)
	}
	if res.Hedged == 0 || res.HedgeWins == 0 {
		return nil, fmt.Errorf("slow-donor scenario fired no hedges (hedged=%d wins=%d)", res.Hedged, res.HedgeWins)
	}

	// Scenario 2: reclamation storm under the full stack.
	if err := runChaosStorm(seed, prm, res); err != nil {
		return nil, err
	}
	if res.Shed == 0 {
		return nil, fmt.Errorf("storm shed no leases (live before: %d)", res.LiveBefore)
	}
	if res.Healthy.P99 > 0 && res.Storm.P99 > 20*res.Healthy.P99 {
		return nil, fmt.Errorf("storm p99 %v unbounded vs healthy %v", res.Storm.P99, res.Healthy.P99)
	}
	if res.Recovered.BytesPerSec < 0.7*res.Healthy.BytesPerSec {
		return nil, fmt.Errorf("post-storm throughput %.0f B/s never recovered (healthy %.0f B/s)",
			res.Recovered.BytesPerSec, res.Healthy.BytesPerSec)
	}

	// Scenario 3: flapping donor — the breaker must trip and recover.
	if err := runChaosFlap(seed, prm, res); err != nil {
		return nil, err
	}
	if res.FlapBrownouts+res.FlapQuarantines == 0 {
		return nil, fmt.Errorf("flapping donor never tripped a breaker")
	}
	if res.FlapProbes == 0 {
		return nil, fmt.Errorf("no recovery probes were routed through the flapping donor")
	}
	if res.FlapRecoveries == 0 {
		return nil, fmt.Errorf("flapping donor never probed back to healthy (probes=%d)", res.FlapProbes)
	}
	if res.HealthReports == 0 {
		return nil, fmt.Errorf("no slow-donor reports reached the broker via heartbeats")
	}

	if res.Errors > 0 {
		return nil, fmt.Errorf("%d engine-visible errors across chaos scenarios", res.Errors)
	}
	return res, nil
}

// reportChaos prints all three scenarios.
func reportChaos(seed int64, quick bool, rep *Report) error {
	rep.Println("Tail-tolerance chaos harness: slow donors (hedging A/B),")
	rep.Println("a reclamation storm under the full stack, and a flapping donor")
	prm := ChaosGeometry(quick)
	res, err := RunChaos(seed, prm)
	if err != nil {
		return err
	}
	rep.Printf("  %d participants, %d-way replicated stripes, hedge cap %.0f%%\n",
		res.Participants, prm.Replication, prm.HedgeRateCap*100)
	rep.Printf("  slow donors (%d donors +%v):\n", prm.SlowDonors, prm.SlowBy)
	rep.Printf("    hedging off: p50=%v p99=%v %.0f MB/s\n",
		res.SlowOff.P50.Round(time.Microsecond), res.SlowOff.P99.Round(time.Microsecond), res.SlowOff.BytesPerSec/1e6)
	rep.Printf("    hedging on:  p50=%v p99=%v %.0f MB/s\n",
		res.SlowOn.P50.Round(time.Microsecond), res.SlowOn.P99.Round(time.Microsecond), res.SlowOn.BytesPerSec/1e6)
	rep.Printf("    p99 cut %.1fx, hedge rate %.3f (%d hedges, %d wins, %d tolerant reads)\n",
		res.HedgeCut, res.HedgeRate, res.Hedged, res.HedgeWins, res.Tolerant)
	rep.Printf("  reclamation storm: %d/%d leases shed\n", res.Shed, res.LiveBefore)
	rep.Printf("    healthy:   p99=%v %.0f MB/s\n", res.Healthy.P99.Round(time.Microsecond), res.Healthy.BytesPerSec/1e6)
	rep.Printf("    storm:     p99=%v %.0f MB/s\n", res.Storm.P99.Round(time.Microsecond), res.Storm.BytesPerSec/1e6)
	rep.Printf("    recovered: p99=%v %.0f MB/s\n", res.Recovered.P99.Round(time.Microsecond), res.Recovered.BytesPerSec/1e6)
	rep.Printf("    slow-reads=%d deadline-misses=%d hedged=%d proactive-migrations=%d\n",
		res.StormSlow, res.StormMisses, res.StormHedged, res.StormMigrations)
	rep.Printf("  flapping donor: brownouts=%d quarantines=%d probes=%d recoveries=%d health-reports=%d\n",
		res.FlapBrownouts, res.FlapQuarantines, res.FlapProbes, res.FlapRecoveries, res.HealthReports)
	rep.Printf("  fallback reads=%d engine-visible errors=%d\n", res.Fallbacks, res.Errors)

	rep.Metric("participants", float64(res.Participants))
	rep.MetricDur("slow_off_p50_ms", res.SlowOff.P50)
	rep.MetricDur("slow_off_p99_ms", res.SlowOff.P99)
	rep.Metric("slow_off_mb_per_sec", res.SlowOff.BytesPerSec/1e6)
	rep.MetricDur("slow_on_p50_ms", res.SlowOn.P50)
	rep.MetricDur("slow_on_p99_ms", res.SlowOn.P99)
	rep.Metric("slow_on_mb_per_sec", res.SlowOn.BytesPerSec/1e6)
	rep.Metric("hedge_cut", res.HedgeCut)
	rep.Metric("hedge_rate", res.HedgeRate)
	rep.Metric("hedged_reads", float64(res.Hedged))
	rep.Metric("hedge_wins", float64(res.HedgeWins))
	rep.Metric("tolerant_reads", float64(res.Tolerant))
	rep.Metric("live_before_storm", float64(res.LiveBefore))
	rep.Metric("shed", float64(res.Shed))
	rep.MetricDur("healthy_p99_ms", res.Healthy.P99)
	rep.Metric("healthy_mb_per_sec", res.Healthy.BytesPerSec/1e6)
	rep.MetricDur("storm_p99_ms", res.Storm.P99)
	rep.Metric("storm_mb_per_sec", res.Storm.BytesPerSec/1e6)
	rep.MetricDur("recovered_p99_ms", res.Recovered.P99)
	rep.Metric("recovered_mb_per_sec", res.Recovered.BytesPerSec/1e6)
	rep.Metric("storm_slow_reads", float64(res.StormSlow))
	rep.Metric("storm_deadline_misses", float64(res.StormMisses))
	rep.Metric("storm_hedged", float64(res.StormHedged))
	rep.Metric("storm_migrations", float64(res.StormMigrations))
	rep.Metric("flap_brownouts", float64(res.FlapBrownouts))
	rep.Metric("flap_quarantines", float64(res.FlapQuarantines))
	rep.Metric("flap_probes", float64(res.FlapProbes))
	rep.Metric("flap_recoveries", float64(res.FlapRecoveries))
	rep.Metric("health_reports", float64(res.HealthReports))
	rep.Metric("fallbacks", float64(res.Fallbacks))
	rep.Metric("errors", float64(res.Errors))
	return nil
}
