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
	"remotedb/internal/broker/metastore"
	"remotedb/internal/cluster"
	"remotedb/internal/core"
	"remotedb/internal/metrics"
	"remotedb/internal/rmem"
	"remotedb/internal/sim"
	"remotedb/internal/vfs"
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

// DefaultChaosParams: the cluster bed's geometry (160 holders + 48
// donors = 208 participants on a 4-shard broker) with 2-way replicated
// stripes so hedges and failover have somewhere to go.
func DefaultChaosParams() ChaosParams {
	return ChaosParams{
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
}

// QuickChaosParams shrinks the bed and the measurement windows for the
// CI pass; rmbench -quick and the -short smoke test use it (the
// committed BENCH_chaos.json baseline is the quick run).
func QuickChaosParams() ChaosParams {
	prm := DefaultChaosParams()
	prm.Holders = 48
	prm.Donors = 16
	prm.SlowDonors = 1
	prm.Measure = 60 * time.Millisecond
	prm.HeartbeatEvery = 20 * time.Millisecond
	prm.WarmReads = 150
	prm.ReadsPerHolder = 300
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

// chaosHolderConfig mutates the per-holder FS config for one scenario.
type chaosHolderConfig func(cfg *core.Config)

// buildChaosBed assembles the sharded broker, donors, and holders. It
// returns the donor servers so scenarios can inject service delay.
func buildChaosBed(p *sim.Proc, prm ChaosParams, mut chaosHolderConfig) (*broker.Cluster, []*cluster.Server, []*clusterHolder, error) {
	k := p.Kernel()
	store := metastore.New(k, 10*time.Microsecond)
	bcfg := broker.DefaultConfig()
	bcfg.LeaseTTL = prm.LeaseTTL
	c := broker.NewCluster(p, store, prm.Shards, bcfg)
	if prm.ExpireEvery > 0 {
		k.Go("chaos-broker-expire", func(ep *sim.Proc) { c.ExpireLoop(ep, prm.ExpireEvery) })
	}
	var donors []*cluster.Server
	for i := 0; i < prm.Donors; i++ {
		m := cluster.NewServer(k, fmt.Sprintf("mem%d", i+1), serverConfig(4))
		if _, err := c.AddProxy(p, m, prm.MRBytes, prm.DonorMRs); err != nil {
			return nil, nil, nil, err
		}
		donors = append(donors, m)
	}
	var hs []*clusterHolder
	// Holder machines get a deeper core pool than the Table 3 default: an
	// abandoned hedge loser holds an initiator slot until the slow donor
	// finally answers, and under a 2ms injected delay tens of orphans can
	// be in flight at once. With only 40 cores those orphans exhaust the
	// client and every read — hedged or not — queues behind them for the
	// full injected delay, which is exactly the head-of-line blocking the
	// hedge exists to avoid.
	holderCfg := serverConfig(4)
	holderCfg.Cores = 256
	for i := 0; i < prm.Holders; i++ {
		db := cluster.NewServer(k, fmt.Sprintf("db%d", i+1), holderCfg)
		client := rmem.NewClient(p, db, rmem.DefaultClientConfig())
		fsCfg := core.DefaultConfig()
		fsCfg.Tenant = clusterTenants[i%len(clusterTenants)]
		fsCfg.HeartbeatEvery = prm.HeartbeatEvery
		fsCfg.Replication = prm.Replication
		fsCfg.HedgeRateCap = prm.HedgeRateCap
		if mut != nil {
			mut(&fsCfg)
		}
		fs := core.NewFS(p, c, client, fsCfg)
		f, err := fs.Create(p, "work", prm.FileBytes)
		if err != nil {
			return nil, nil, nil, fmt.Errorf("holder %d: %w", i, err)
		}
		if err := f.OpenConn(p); err != nil {
			return nil, nil, nil, err
		}
		// Populate the file: replicated stripes are integrity-framed, and
		// an unwritten framed block is served as zeros without touching
		// remote memory — the chaos read loops must actually hit donors.
		chunk := make([]byte, 64<<10)
		for j := range chunk {
			chunk[j] = byte(i + j)
		}
		for off := int64(0); off < prm.FileBytes; off += int64(len(chunk)) {
			n := int64(len(chunk))
			if off+n > prm.FileBytes {
				n = prm.FileBytes - off
			}
			if err := f.WriteAt(p, chunk[:n], off); err != nil {
				return nil, nil, nil, fmt.Errorf("holder %d init: %w", i, err)
			}
		}
		local := vfs.NewDeviceFile("base", db.SSD)
		// A storm can revoke every replica of a stripe; without salvage
		// the restripe would leave the range zeroed. Repopulate it from
		// base data on the local SSD — the same bytes the fallback path
		// serves — so recovery does real I/O and the post-storm bed holds
		// real data again.
		f.SetSalvage(func(sp *sim.Proc, sf *core.File, off, n int64) error {
			buf := make([]byte, 64<<10)
			for o := off; o < off+n; o += int64(len(buf)) {
				m := int64(len(buf))
				if o+m > off+n {
					m = off + n - o
				}
				if err := local.ReadAt(sp, buf[:m], o); err != nil {
					return err
				}
				if err := sf.WriteAt(sp, buf[:m], o); err != nil {
					return err
				}
			}
			return nil
		})
		hs = append(hs, &clusterHolder{
			fs:    fs,
			f:     f,
			local: local,
		})
	}
	return c, donors, hs, nil
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

// driveFixed has every holder perform exactly n random 8K reads — a
// fixed workload, so the two arms of the hedging A/B measure the same
// reads and the latency histogram is not biased toward fast holders
// the way a fixed-time closed loop would be. Pass a nil histogram for
// unmeasured warm-up rounds.
func driveFixed(p *sim.Proc, hs []*clusterHolder, n int, hist *metrics.Histogram,
	bytes, fallbacks, errs *int64) {
	k := p.Kernel()
	wg := sim.NewWaitGroup(k)
	wg.Add(len(hs))
	span := hs[0].f.Size()
	for _, h := range hs {
		h := h
		k.Go("holder-fixed", func(tp *sim.Proc) {
			defer wg.Done()
			buf := make([]byte, 8192)
			for i := 0; i < n; i++ {
				off := tp.Rand().Int63n(span/8192) * 8192
				t0 := tp.Now()
				if err := h.f.ReadAt(tp, buf, off); err != nil {
					if !reclaimable(err) {
						*errs++
						continue
					}
					if err := h.local.ReadAt(tp, buf, off); err != nil {
						*errs++
						continue
					}
					*fallbacks++
				}
				if hist != nil {
					hist.Observe(tp.Now() - t0)
					*bytes += int64(len(buf))
				}
			}
		})
	}
	wg.Wait(p)
}

// runChaosSlowDonor runs the slow-donor scenario with hedging on or
// off: an unmeasured warm-up round (hedge thresholds need per-donor
// p95 samples), then prm.SlowDonors donors go slow and every holder
// performs ReadsPerHolder measured reads.
func runChaosSlowDonor(seed int64, prm ChaosParams, hedging bool, res *ChaosResult) (ChaosArm, error) {
	var out ChaosArm
	err := RunInSim(seed, time.Hour, func(p *sim.Proc) error {
		c, donors, hs, err := buildChaosBed(p, prm, func(cfg *core.Config) {
			cfg.Hedging = hedging
			cfg.HealthChecks = false // isolate hedging in the A/B
		})
		if err != nil {
			return err
		}
		var fallbacks, errs int64
		driveFixed(p, hs, prm.WarmReads, nil, nil, &fallbacks, &errs)
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
		hist := metrics.NewHistogram()
		var bytes int64
		start := p.Now()
		driveFixed(p, hs, prm.ReadsPerHolder, hist, &bytes, &fallbacks, &errs)
		out = arm(hist, bytes, p.Now()-start)
		res.Fallbacks += fallbacks
		res.Errors += errs
		if hedging {
			for _, h := range hs {
				res.Hedged += h.fs.HedgedReads
				res.HedgeWins += h.fs.HedgeWins
				res.Tolerant += h.fs.TolerantReads
			}
		}
		for _, h := range hs {
			h.fs.CloseAll(p)
		}
		c.StopExpireLoop()
		return nil
	})
	return out, err
}

// runChaosStorm runs the reclamation wave with the full tail-tolerance
// stack engaged: deadline budgets, hedged reads, and health scoring all
// on while StormPulses×StormFrac of the live leases are shed.
func runChaosStorm(seed int64, prm ChaosParams, res *ChaosResult) error {
	return RunInSim(seed, time.Hour, func(p *sim.Proc) error {
		c, _, hs, err := buildChaosBed(p, prm, func(cfg *core.Config) {
			cfg.Hedging = true
			cfg.HealthChecks = true
			cfg.DeadlineBudget = prm.DeadlineBudget
		})
		if err != nil {
			return err
		}
		k := p.Kernel()
		t0 := p.Now()
		t1 := t0 + prm.Measure
		t2 := t1 + prm.Measure
		t3 := t2 + prm.Measure
		hists := []*metrics.Histogram{metrics.NewHistogram(), metrics.NewHistogram(), metrics.NewHistogram()}
		bytes := []int64{0, 0, 0}
		var fallbacks, errs int64
		k.Go("chaos-reclamation-wave", func(sp *sim.Proc) {
			sp.Sleep(t1 - sp.Now())
			res.LiveBefore = c.ActiveLeases()
			per := int(float64(res.LiveBefore) * prm.StormFrac)
			gap := prm.Measure / time.Duration(prm.StormPulses+1)
			for i := 0; i < prm.StormPulses; i++ {
				res.Shed += c.ShedFair(per)
				sp.Sleep(gap)
			}
		})
		driveHolders(p, hs, t3, func(now time.Duration) int {
			switch {
			case now < t1:
				return 0
			case now < t2:
				return 1
			default:
				return 2
			}
		}, hists, bytes, &fallbacks, &errs)
		res.Healthy = arm(hists[0], bytes[0], prm.Measure)
		res.Storm = arm(hists[1], bytes[1], prm.Measure)
		res.Recovered = arm(hists[2], bytes[2], prm.Measure)
		res.Fallbacks += fallbacks
		res.Errors += errs
		for _, h := range hs {
			res.StormSlow += h.fs.SlowReads
			res.StormMisses += h.fs.Client.DeadlineMisses
			res.StormHedged += h.fs.HedgedReads
			res.StormMigrations += h.fs.ProactiveMigrations
		}
		for _, h := range hs {
			h.fs.CloseAll(p)
		}
		c.StopExpireLoop()
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
		c, donors, hs, err := buildChaosBed(p, prm, func(cfg *core.Config) {
			cfg.Hedging = true
			cfg.HealthChecks = true
			cfg.DeadlineBudget = prm.DeadlineBudget
			cfg.Recover = false
		})
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
		hist := metrics.NewHistogram()
		bytes := []int64{0}
		var fallbacks, errs int64
		driveHolders(p, hs, end, func(time.Duration) int { return 0 },
			[]*metrics.Histogram{hist}, bytes, &fallbacks, &errs)
		res.Fallbacks += fallbacks
		res.Errors += errs
		for _, h := range hs {
			res.FlapBrownouts += h.fs.Brownouts
			res.FlapQuarantines += h.fs.Quarantines
			res.FlapProbes += h.fs.HealthProbes
			res.FlapRecoveries += h.fs.HealthRecoveries
		}
		res.HealthReports = c.HealthReports()
		for _, h := range hs {
			h.fs.CloseAll(p)
		}
		c.StopExpireLoop()
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
