// Cluster-scale broker benchmark: hundreds of simulated database
// servers lease remote memory from a sharded broker, renew through
// batched per-holder heartbeats, and ride out a diurnal reclamation
// wave that claws back a quarter of the live leases. Phase A sweeps the
// holder count to show aggregate random-read throughput scaling until
// the donor NICs saturate; phase B measures latency inflation and
// engine-visible errors through the reclamation storm (a revoked
// stripe is never an error: the holder falls back to its local SSD,
// exactly as a buffer-pool extension consumer would fall back to base
// data, while the FS restripes in the background).

package exp

import (
	"errors"
	"fmt"
	"time"

	"remotedb/internal/broker"
	"remotedb/internal/broker/metastore"
	"remotedb/internal/cluster"
	"remotedb/internal/core"
	"remotedb/internal/fault"
	"remotedb/internal/metrics"
	"remotedb/internal/rmem"
	"remotedb/internal/sim"
	"remotedb/internal/vfs"
)

// ClusterParams sizes the cluster benchmark.
type ClusterParams struct {
	Shards      int   // broker shards
	Donors      int   // memory servers donating MRs
	HolderSteps []int // phase A sweep; the last entry is phase B's size
	MRBytes     int   // memory-region size
	DonorMRs    int   // MRs pinned per donor
	FileBytes   int64 // remote file per holder

	LeaseTTL       time.Duration
	HeartbeatEvery time.Duration
	ExpireEvery    time.Duration
	Measure        time.Duration // per phase-A point and per phase-B window

	StormPulses int     // reclamation pulses in the storm window
	StormFrac   float64 // fraction of live leases shed per pulse
	Quota       int64   // per-tenant byte quota
}

// ClusterGeometry: 160 holders + 48 donors (208 participants) on a
// 4-shard broker, three tenants with 2:1:1 weights; quick shortens the
// measurement windows.
func ClusterGeometry(quick bool) ClusterParams {
	prm := ClusterParams{
		Shards:         4,
		Donors:         48,
		HolderSteps:    []int{40, 80, 160},
		MRBytes:        128 << 10,
		DonorMRs:       40,
		FileBytes:      512 << 10,
		LeaseTTL:       120 * time.Millisecond,
		HeartbeatEvery: 40 * time.Millisecond,
		ExpireEvery:    60 * time.Millisecond,
		Measure:        250 * time.Millisecond,
		StormPulses:    3,
		StormFrac:      0.10,
		Quota:          64 << 20,
	}
	if quick {
		prm.Measure = 80 * time.Millisecond
	}
	return prm
}

// clusterTenants assigns holders round-robin to three tenants whose
// weights make "oltp" twice as entitled under scarcity.
var clusterTenants = []string{"oltp", "olap", "batch"}

// ScalePoint is one x-position of the phase A holder sweep.
type ScalePoint struct {
	Holders      int
	Participants int
	BytesPerSec  float64
	MeanLat      time.Duration
}

// ClusterResult is everything the cluster benchmark reports.
type ClusterResult struct {
	Shards int
	Donors int
	Scale  []ScalePoint

	// Phase B: the reclamation storm at the largest holder count.
	Holders      int
	Participants int
	LiveBefore   int // live leases when the storm hit
	Shed         int // leases revoked by the wave
	ShedFrac     float64

	HealthyLat   time.Duration
	StormLat     time.Duration
	RecoveredLat time.Duration
	Inflation    float64 // StormLat / HealthyLat
	HealthyBPS   float64
	StormBPS     float64

	Fallbacks int64 // reads served from local SSD during repair
	Errors    int64 // engine-visible errors (must be zero)

	Heartbeats  int64 // batched renewal rounds across all holders
	HBBatchMean float64
	HBBatches   int64
	Grants      int64
	Renewals    int64
	Expirations int64
	Revocations int64
	ActivePeak  int64
	FreeMRs     int64

	Tenants map[string]broker.TenantStats
}

// clusterHolder is one simulated database server: its remote file, the
// local SSD file it falls back to while a stripe is being restriped,
// and the FS whose heartbeat loop renews its whole lease cohort.
type clusterHolder struct {
	fs    *core.FS
	f     *core.File
	local vfs.File
}

// clusterBed is what a cluster-scale bed is built from: the cluster and
// chaos experiments differ only in these inputs.
type clusterBed struct {
	shards, donors, holders int
	mrBytes, donorMRs       int
	fileBytes               int64
	expireEvery             time.Duration
	broker                  broker.Config // the lease service, tenant quotas and weights included
	fs                      core.Config   // every holder's FS; Tenant is assigned round-robin
	holderCores             int           // 0 keeps serverConfig's
	// populate writes every holder's file and salvages a lost stripe
	// from base data on the holder's local SSD.
	populate bool
}

// bed returns the cluster experiment's bed at one holder count.
func (prm ClusterParams) bed(holders int) clusterBed {
	bcfg := broker.DefaultConfig()
	bcfg.LeaseTTL = prm.LeaseTTL
	bcfg.Quotas = map[string]int64{}
	bcfg.Weights = map[string]float64{"oltp": 2, "olap": 1, "batch": 1}
	for _, t := range clusterTenants {
		bcfg.Quotas[t] = prm.Quota
	}
	fsCfg := core.DefaultConfig()
	fsCfg.HeartbeatEvery = prm.HeartbeatEvery
	return clusterBed{shards: prm.Shards, donors: prm.Donors, holders: holders,
		mrBytes: prm.MRBytes, donorMRs: prm.DonorMRs, fileBytes: prm.FileBytes,
		expireEvery: prm.ExpireEvery, broker: bcfg, fs: fsCfg}
}

// buildClusterBed assembles the sharded broker, donors, and holders
// inside the running simulation. It returns the donor servers so
// scenarios can inject service delay.
func buildClusterBed(p *sim.Proc, bed clusterBed) (*broker.Cluster, []*cluster.Server, []*clusterHolder, error) {
	k := p.Kernel()
	store := metastore.New(k, 10*time.Microsecond)
	c := broker.NewCluster(p, store, bed.shards, bed.broker)
	if bed.expireEvery > 0 {
		k.Go("cluster-broker-expire", func(ep *sim.Proc) { c.ExpireLoop(ep, bed.expireEvery) })
	}
	var donors []*cluster.Server
	for i := 0; i < bed.donors; i++ {
		m := cluster.NewServer(k, fmt.Sprintf("mem%d", i+1), serverConfig(4))
		if _, err := c.AddProxy(p, m, bed.mrBytes, bed.donorMRs); err != nil {
			return nil, nil, nil, err
		}
		donors = append(donors, m)
	}
	holderCfg := serverConfig(4)
	if bed.holderCores > 0 {
		holderCfg.Cores = bed.holderCores
	}
	var hs []*clusterHolder
	for i := 0; i < bed.holders; i++ {
		db := cluster.NewServer(k, fmt.Sprintf("db%d", i+1), holderCfg)
		client := rmem.NewClient(p, db, rmem.DefaultClientConfig())
		fsCfg := bed.fs
		fsCfg.Tenant = clusterTenants[i%len(clusterTenants)]
		fs := core.NewFS(p, c, client, fsCfg)
		f, err := fs.Create(p, "work", bed.fileBytes)
		if err != nil {
			return nil, nil, nil, fmt.Errorf("holder %d: %w", i, err)
		}
		if err := f.OpenConn(p); err != nil {
			return nil, nil, nil, err
		}
		h := &clusterHolder{fs: fs, f: f, local: vfs.NewDeviceFile("base", db.SSD)}
		if bed.populate {
			if err := h.populate(p, i, bed.fileBytes); err != nil {
				return nil, nil, nil, fmt.Errorf("holder %d init: %w", i, err)
			}
		}
		hs = append(hs, h)
	}
	return c, donors, hs, nil
}

// populate writes holder i's file: replicated stripes are
// integrity-framed, and an unwritten framed block is served as zeros
// without touching remote memory, so the read loops must write before
// they can hit donors. A storm can revoke every replica of a stripe;
// without salvage the restripe would leave the range zeroed, so the
// salvage repopulates it from base data on the local SSD — the same
// bytes the fallback path serves — and recovery does real I/O.
func (h *clusterHolder) populate(p *sim.Proc, i int, size int64) error {
	chunk := make([]byte, 64<<10)
	for j := range chunk {
		chunk[j] = byte(i + j)
	}
	for off := int64(0); off < size; off += int64(len(chunk)) {
		if err := h.f.WriteAt(p, chunk[:min(int64(len(chunk)), size-off)], off); err != nil {
			return err
		}
	}
	h.f.SetSalvage(func(sp *sim.Proc, sf *core.File, off, n int64) error {
		buf := make([]byte, 64<<10)
		for o := off; o < off+n; o += int64(len(buf)) {
			m := min(int64(len(buf)), off+n-o)
			if err := h.local.ReadAt(sp, buf[:m], o); err != nil {
				return err
			}
			if err := sf.WriteAt(sp, buf[:m], o); err != nil {
				return err
			}
		}
		return nil
	})
	return nil
}

// closeClusterBed stops every holder's FS and the broker's expiry loop.
func closeClusterBed(p *sim.Proc, c *broker.Cluster, hs []*clusterHolder) {
	for _, h := range hs {
		h.fs.CloseAll(p)
	}
	c.StopExpireLoop()
}

// holderLoad is what driveHolders measures: per window a latency
// histogram and the bytes read, and over every read the fallbacks to
// the local SSD and the engine-visible errors.
type holderLoad struct {
	hists     []*metrics.Histogram
	bytes     []int64
	fallbacks int64
	errs      int64
}

func newHolderLoad(windows int) *holderLoad {
	ld := &holderLoad{bytes: make([]int64, windows)}
	for i := 0; i < windows; i++ {
		ld.hists = append(ld.hists, metrics.NewHistogram())
	}
	return ld
}

// oneWindow puts every read in window 0.
func oneWindow(time.Duration) int { return 0 }

// driveHolders runs one 8K random reader per holder, each until it has
// done n reads or, with n = 0, until end. A fixed n makes two arms of an
// A/B measure the same reads, where a fixed-time closed loop biases the
// histogram toward fast holders. Reads that fail because a stripe is
// mid-reclamation fall back to the holder's local SSD (counted, never
// an error); any other failure is an engine-visible error. A read is
// recorded in window(now) of ld, or nowhere when that is out of range.
func driveHolders(p *sim.Proc, hs []*clusterHolder, n int, end time.Duration,
	window func(time.Duration) int, ld *holderLoad) {
	k := p.Kernel()
	wg := sim.NewWaitGroup(k)
	wg.Add(len(hs))
	span := hs[0].f.Size()
	for _, h := range hs {
		h := h
		k.Go("holder-drive", func(tp *sim.Proc) {
			defer wg.Done()
			buf := make([]byte, 8192)
			for i := 0; (n > 0 && i < n) || (n == 0 && tp.Now() < end); i++ {
				off := tp.Rand().Int63n(span/8192) * 8192
				t0 := tp.Now()
				if err := h.f.ReadAt(tp, buf, off); err != nil {
					if !reclaimable(err) {
						ld.errs++
						continue
					}
					// The stripe is being reclaimed or restriped:
					// serve the page from base data on the local SSD,
					// like a buffer-pool extension miss.
					if err := h.local.ReadAt(tp, buf, off); err != nil {
						ld.errs++
						continue
					}
					ld.fallbacks++
				}
				if w := window(tp.Now()); w >= 0 && w < len(ld.hists) {
					ld.hists[w].Observe(tp.Now() - t0)
					ld.bytes[w] += int64(len(buf))
				}
			}
		})
	}
	wg.Wait(p)
}

// reclaimable reports whether a read error is part of the reclamation
// protocol (revoked, restriping, transiently retryable) rather than an
// engine-visible failure.
func reclaimable(err error) bool {
	return fault.Retryable(err) ||
		errors.Is(err, fault.ErrRevoked) ||
		errors.Is(err, fault.ErrUnavailable)
}

// reclamationWave starts the diurnal reclamation wave across three
// back-to-back windows of length measure from now — healthy, storm,
// recovered. At the storm's start it stores the live lease count in
// *live; then pulses spread over the storm window each shed frac of
// those leases, oldest-first round-robin over tenants, adding the count
// to *shed. It returns the end of the last window and the window of an
// instant.
func reclamationWave(p *sim.Proc, c *broker.Cluster, measure time.Duration, pulses int, frac float64,
	live, shed *int) (time.Duration, func(time.Duration) int) {
	t1 := p.Now() + measure
	t2 := t1 + measure
	p.Kernel().Go("reclamation-wave", func(sp *sim.Proc) {
		sp.Sleep(t1 - sp.Now())
		*live = c.ActiveLeases()
		per := int(float64(*live) * frac)
		gap := measure / time.Duration(pulses+1)
		for i := 0; i < pulses; i++ {
			*shed += c.ShedFair(per)
			sp.Sleep(gap)
		}
	})
	return t2 + measure, func(now time.Duration) int {
		switch {
		case now < t1:
			return 0
		case now < t2:
			return 1
		}
		return 2
	}
}

// RunCluster runs the cluster-scale broker benchmark.
func RunCluster(seed int64, prm ClusterParams) (*ClusterResult, error) {
	res := &ClusterResult{Shards: prm.Shards, Donors: prm.Donors}

	// Phase A: holder-count sweep, aggregate random-read throughput.
	for _, n := range prm.HolderSteps {
		pt := ScalePoint{Holders: n, Participants: n + prm.Donors}
		err := RunInSim(seed, time.Hour, func(p *sim.Proc) error {
			c, _, hs, err := buildClusterBed(p, prm.bed(n))
			if err != nil {
				return err
			}
			ld := newHolderLoad(1)
			driveHolders(p, hs, 0, p.Now()+prm.Measure, oneWindow, ld)
			if ld.errs > 0 {
				return fmt.Errorf("%d engine-visible errors at %d holders", ld.errs, n)
			}
			pt.BytesPerSec = float64(ld.bytes[0]) / prm.Measure.Seconds()
			pt.MeanLat = ld.hists[0].Mean()
			closeClusterBed(p, c, hs)
			return nil
		})
		if err != nil {
			return nil, err
		}
		res.Scale = append(res.Scale, pt)
	}

	// Phase B: the diurnal reclamation wave at the largest holder count.
	holders := prm.HolderSteps[len(prm.HolderSteps)-1]
	res.Holders = holders
	res.Participants = holders + prm.Donors
	err := RunInSim(seed, time.Hour, func(p *sim.Proc) error {
		c, _, hs, err := buildClusterBed(p, prm.bed(holders))
		if err != nil {
			return err
		}
		end, window := reclamationWave(p, c, prm.Measure, prm.StormPulses, prm.StormFrac, &res.LiveBefore, &res.Shed)
		ld := newHolderLoad(3)
		driveHolders(p, hs, 0, end, window, ld)

		res.HealthyLat = ld.hists[0].Mean()
		res.StormLat = ld.hists[1].Mean()
		res.RecoveredLat = ld.hists[2].Mean()
		if res.HealthyLat > 0 {
			res.Inflation = float64(res.StormLat) / float64(res.HealthyLat)
		}
		res.HealthyBPS = float64(ld.bytes[0]) / prm.Measure.Seconds()
		res.StormBPS = float64(ld.bytes[1]) / prm.Measure.Seconds()
		res.Fallbacks = ld.fallbacks
		res.Errors = ld.errs
		if res.LiveBefore > 0 {
			res.ShedFrac = float64(res.Shed) / float64(res.LiveBefore)
		}
		for _, h := range hs {
			res.Heartbeats += h.fs.Heartbeats
		}
		hb := c.HeartbeatBatch()
		res.HBBatchMean = hb.Mean()
		res.HBBatches = hb.N
		res.Grants = c.Grants()
		res.Renewals = c.Renewals()
		res.Expirations = c.Expirations()
		res.Revocations = c.Revocations()
		res.ActivePeak = c.ActiveGauge().Peak
		res.FreeMRs = int64(c.FreeMRs())
		res.Tenants = c.TenantStats()
		closeClusterBed(p, c, hs)
		return nil
	})
	if err != nil {
		return nil, err
	}
	return res, nil
}

// reportCluster prints both phases.
func reportCluster(seed int64, quick bool, rep *Report) error {
	rep.Println("Cluster-scale broker: sharded lease space, batched heartbeats,")
	rep.Println("and a diurnal reclamation wave over 200+ participants")
	prm := ClusterGeometry(quick)
	res, err := RunCluster(seed, prm)
	if err != nil {
		return err
	}
	rep.Printf("  %d broker shards, %d donors\n", res.Shards, res.Donors)
	rep.Printf("  %8s %14s %14s %12s\n", "holders", "participants", "agg MB/s", "mean lat")
	for _, pt := range res.Scale {
		rep.Printf("  %8d %14d %14.0f %12v\n", pt.Holders, pt.Participants,
			pt.BytesPerSec/1e6, pt.MeanLat.Round(time.Microsecond))
		key := fmt.Sprintf("holders%d", pt.Holders)
		rep.Metric(key+"/agg_mb_per_sec", pt.BytesPerSec/1e6)
		rep.MetricDur(key+"/mean_lat_ms", pt.MeanLat)
	}
	rep.Printf("  storm: %d/%d live leases shed (%.0f%%) over %d pulses\n",
		res.Shed, res.LiveBefore, res.ShedFrac*100, prm.StormPulses)
	rep.Printf("  latency: healthy=%v storm=%v recovered=%v (%.2fx inflation)\n",
		res.HealthyLat.Round(time.Microsecond), res.StormLat.Round(time.Microsecond),
		res.RecoveredLat.Round(time.Microsecond), res.Inflation)
	rep.Printf("  reads: fallbacks=%d engine-visible errors=%d\n", res.Fallbacks, res.Errors)
	rep.Printf("  heartbeats: %d rounds, %d batches, mean batch %.1f leases\n",
		res.Heartbeats, res.HBBatches, res.HBBatchMean)
	rep.Printf("  broker: grants=%d renewals=%d expirations=%d revocations=%d active-peak=%d free=%d\n",
		res.Grants, res.Renewals, res.Expirations, res.Revocations, res.ActivePeak, res.FreeMRs)
	for _, t := range []string{"oltp", "olap", "batch"} {
		st := res.Tenants[t]
		rep.Printf("  tenant %-6s grants=%d denies=%d sheds=%d held=%d MRs (%d MB)\n",
			t, st.Grants, st.Denies, st.Sheds, st.HeldMRs, st.HeldBytes>>20)
		rep.Metric("tenant/"+t+"/grants", float64(st.Grants))
		rep.Metric("tenant/"+t+"/denies", float64(st.Denies))
		rep.Metric("tenant/"+t+"/sheds", float64(st.Sheds))
	}
	rep.Metric("participants", float64(res.Participants))
	rep.Metric("live_before_storm", float64(res.LiveBefore))
	rep.Metric("shed", float64(res.Shed))
	rep.Metric("shed_frac", res.ShedFrac)
	rep.MetricDur("healthy_lat_ms", res.HealthyLat)
	rep.MetricDur("storm_lat_ms", res.StormLat)
	rep.MetricDur("recovered_lat_ms", res.RecoveredLat)
	rep.Metric("inflation", res.Inflation)
	rep.Metric("healthy_mb_per_sec", res.HealthyBPS/1e6)
	rep.Metric("storm_mb_per_sec", res.StormBPS/1e6)
	rep.Metric("fallbacks", float64(res.Fallbacks))
	rep.Metric("errors", float64(res.Errors))
	rep.Metric("heartbeat_rounds", float64(res.Heartbeats))
	rep.Metric("heartbeat_batches", float64(res.HBBatches))
	rep.Metric("heartbeat_batch_mean", res.HBBatchMean)
	rep.Metric("grants", float64(res.Grants))
	rep.Metric("renewals", float64(res.Renewals))
	rep.Metric("expirations", float64(res.Expirations))
	rep.Metric("revocations", float64(res.Revocations))
	rep.Metric("active_peak", float64(res.ActivePeak))
	return nil
}
