// Tail tolerance for the remote tier: deadline budgets, hedged replica
// reads, and per-donor health scoring with a three-state breaker.
//
// The fault ladder in core.go and integrity.go only reacts to *hard*
// failures — a revoked lease errors, a corrupt frame fails
// verification. A donor that is merely slow (reclaiming under memory
// pressure, NIC-saturated, about to revoke) passes every one of those
// checks while stalling each read routed to it. This file makes slow
// donors as survivable as dead ones:
//
//   - Deadline budgets: a read still in flight past its budget (the
//     process deadline set by the query executor, or FS.DeadlineBudget
//     as the per-op default) is abandoned with an error wrapping
//     fault.ErrSlow. ErrSlow is retryable, so every existing fallback
//     ladder (buffer-pool SSD fallback, exp's reclaimable test) handles
//     it with no new cases.
//
//   - Hedged reads: when a replicated stripe's primary read exceeds an
//     adaptive threshold (the donor's learned p95 latency), the same
//     one-sided read fires at the next replica and the first *verified*
//     frame wins; the loser is abandoned (its wire cost is sunk, its
//     bytes land in a private buffer and are discarded). A hedge-rate
//     cap bounds hedge volume so hedges cannot melt the NIC when the
//     whole fleet slows at once.
//
//   - Donor health: per-donor p95-latency and error-rate EWMAs feed a
//     breaker (healthy -> browned-out -> quarantined). Browned-out
//     donors are read last and deprioritized for new leases — the
//     holder soft-avoids them locally and piggybacks the set on its
//     batched heartbeat so the broker can deprioritize them for every
//     holder. Quarantined donors additionally get their replicas
//     proactively migrated to healthy donors before revocation ever
//     arrives. Recovery is probe-based: every probe interval one
//     trickle read routes through the unhealthy donor, and sustained
//     good samples close the breaker again.
package core

import (
	"fmt"
	"sort"
	"time"

	"remotedb/internal/fault"
	"remotedb/internal/metrics"
	"remotedb/internal/rmem"
	"remotedb/internal/sim"
)

// Breaker thresholds. A donor's *median* latency is compared against
// the fleet-wide *median* — like against like. Medians on both sides
// matter: a fleet p95 is dragged up when a sizable slice of the fleet
// is slow (the p95 of a bimodal mix IS the slow mode), and a donor p95
// sits far above the donor median even on a perfectly healthy fabric
// (natural queueing spread), so p95-vs-median would flag everyone. A
// genuinely sick donor is slow on *every* request, which is exactly
// what a median catches. The ratio form is scale-free: the same code
// governs µs RDMA fabrics and ms TCP paths. Error-rate thresholds are
// absolute. Hysteresis: a donor degrades at the brownout/quarantine
// factors but only recovers via probes back inside the recover factor,
// so it cannot flap on the boundary.
const (
	healthMinSamples    = 8   // samples before latency comparisons mean anything
	brownoutLatFactor   = 3.0 // donor median >= 3x fleet median -> browned-out
	quarantineLatFactor = 8.0 // donor median >= 8x fleet median -> quarantined
	recoverLatFactor    = 1.5 // probe sample <= 1.5x the recovery baseline counts toward recovery
	brownoutErrRate     = 0.3 // error EWMA thresholds, absolute
	quarantineErrRate   = 0.7
	recoverErrRate      = 0.1
)

// DefaultHedgeRateCap bounds hedges to 10% of tolerant reads unless
// FS.HedgeRateCap overrides it.
const DefaultHedgeRateCap = 0.1

// minHedgeThreshold floors the adaptive hedge trigger so a cold tracker
// (or a sub-microsecond p95 estimate) cannot hedge every read from the
// first access.
const minHedgeThreshold = 20 * time.Microsecond

type donorState int

const (
	donorHealthy donorState = iota
	donorBrowned
	donorQuarantined
)

func (s donorState) String() string {
	switch s {
	case donorBrowned:
		return "browned-out"
	case donorQuarantined:
		return "quarantined"
	}
	return "healthy"
}

// donorHealth is one donor's score card.
type donorHealth struct {
	lat        metrics.QuantileEWMA // p95 of successful transfer latencies (hedge trigger)
	med        metrics.QuantileEWMA // median of the same (breaker state input)
	errRate    metrics.EWMA         // 1 = failed/unverified sample, 0 = good
	state      donorState
	nextProbe  time.Duration // half-open: earliest next trickle read
	goodProbes int           // consecutive recovery-grade samples while unhealthy
}

// healthTracker scores every donor this FS talks to. It exists whenever
// Hedging or HealthChecks is on; breaker side effects (brownout,
// quarantine migration, soft-avoid, piggybacked reports) only run with
// HealthChecks — a hedging-only FS uses it purely for p95 thresholds.
type healthTracker struct {
	fs     *FS
	donors map[string]*donorHealth
	fleet  metrics.QuantileEWMA // fleet-wide median, the "normal" baseline
}

func newHealthTracker(fs *FS) *healthTracker {
	return &healthTracker{
		fs:     fs,
		donors: make(map[string]*donorHealth),
		fleet:  metrics.QuantileEWMA{P: 0.5, Step: 0.05},
	}
}

func (h *healthTracker) donor(name string) *donorHealth {
	d := h.donors[name]
	if d == nil {
		d = &donorHealth{
			lat:     metrics.QuantileEWMA{P: 0.95, Step: 0.05},
			med:     metrics.QuantileEWMA{P: 0.5, Step: 0.05},
			errRate: metrics.EWMA{Alpha: 0.2},
		}
		h.donors[name] = d
	}
	return d
}

// probeEvery is the half-open trickle cadence: the heartbeat interval
// (health decisions ride the same clock as lease renewal), or half the
// lease TTL when no explicit heartbeat cadence is set.
func (h *healthTracker) probeEvery() time.Duration {
	if h.fs.HeartbeatEvery > 0 {
		return h.fs.HeartbeatEvery
	}
	if ttl := h.fs.Broker.LeaseTTL(); ttl > 0 {
		return ttl / 2
	}
	return 10 * time.Millisecond
}

// observe folds one transfer outcome into the donor's score card and
// re-evaluates its breaker state. It is called from transfer processes
// (including hedge losers completing after their caller moved on), so
// it must never block.
func (h *healthTracker) observe(name string, lat time.Duration, failed bool, now time.Duration) {
	d := h.donor(name)
	if failed {
		d.errRate.Observe(1)
	} else {
		d.errRate.Observe(0)
		d.lat.ObserveDuration(lat)
		d.med.ObserveDuration(lat)
		h.fleet.ObserveDuration(lat)
	}
	if !h.fs.HealthChecks {
		return
	}
	h.reassess(name, d, now)
	if d.state != donorHealthy {
		h.tryRecover(d, lat, failed)
	}
}

// reassess escalates the donor's breaker (healthy -> browned-out ->
// quarantined). Escalation is immediate; recovery is only ever earned
// through probes (tryRecover), never by the estimate drifting back on
// its own — a p95 EWMA decays far too slowly for that, by design.
func (h *healthTracker) reassess(name string, d *donorHealth, now time.Duration) {
	fleet := h.fleet.Value()
	lat := d.med.Value()
	er := d.errRate.Value()
	latKnown := d.med.Count() >= healthMinSamples && h.fleet.Count() >= healthMinSamples && fleet > 0
	want := d.state
	switch {
	case er >= quarantineErrRate || (latKnown && lat >= quarantineLatFactor*fleet):
		want = donorQuarantined
	case er >= brownoutErrRate || (latKnown && lat >= brownoutLatFactor*fleet):
		want = donorBrowned
	}
	if want <= d.state {
		return
	}
	d.state = want
	d.goodProbes = 0
	switch want {
	case donorBrowned:
		h.fs.Brownouts++
		d.nextProbe = now + h.probeEvery()
	case donorQuarantined:
		h.fs.Quarantines++
		d.nextProbe = now + h.probeEvery()
		h.fs.quarantineDonor(name)
	}
}

// recoverProbes consecutive recovery-grade probe samples close the
// breaker (the classic half-open contract).
const recoverProbes = 3

// tryRecover scores one sample from an unhealthy donor. A sample is
// recovery-grade when it succeeded with latency back inside the recover
// band of the recovery baseline; any failure or slow sample re-opens
// the count. The baseline is the fleet median floored at the hedge
// floor — a single probe sample sits anywhere in the latency
// distribution, so holding it to 1.5x a microsecond-scale median would
// reject healthy probes for their ordinary queueing noise. On recovery
// the stale latency estimates are re-seeded from the probe (the old
// quantiles remember the brownout and would take thousands of samples
// to decay below the threshold on their own).
func (h *healthTracker) tryRecover(d *donorHealth, lat time.Duration, failed bool) {
	base := time.Duration(h.fleet.Value())
	if base < minHedgeThreshold {
		base = minHedgeThreshold
	}
	good := !failed && float64(lat) <= recoverLatFactor*float64(base)
	if !good {
		d.goodProbes = 0
		return
	}
	d.goodProbes++
	if d.goodProbes < recoverProbes || d.errRate.Value() > recoverErrRate {
		return
	}
	d.state = donorHealthy
	d.goodProbes = 0
	d.lat = metrics.QuantileEWMA{P: 0.95, Step: 0.05}
	d.lat.ObserveDuration(lat)
	d.med = metrics.QuantileEWMA{P: 0.5, Step: 0.05}
	d.med.ObserveDuration(lat)
	h.fs.HealthRecoveries++
}

// stateOf returns the donor's breaker state (healthy when unknown).
func (h *healthTracker) stateOf(name string) donorState {
	if d := h.donors[name]; d != nil {
		return d.state
	}
	return donorHealthy
}

// avoidSet returns the donors to deprioritize for new leases.
func (h *healthTracker) avoidSet() map[string]bool {
	var out map[string]bool
	for name, d := range h.donors {
		if d.state != donorHealthy {
			if out == nil {
				out = make(map[string]bool)
			}
			out[name] = true
		}
	}
	return out
}

// slowDonors returns the sorted deprioritization set for the heartbeat
// piggyback.
func (h *healthTracker) slowDonors() []string {
	var out []string
	for name, d := range h.donors {
		if d.state != donorHealthy {
			out = append(out, name)
		}
	}
	sort.Strings(out)
	return out
}

// hedgeThreshold returns how long to wait on donor before hedging: the
// donor's learned p95 (fleet p95 for a cold donor), floored so a cold
// tracker cannot hedge instantly. FS.HedgeAfter overrides adaptivity.
func (h *healthTracker) hedgeThreshold(donor string) time.Duration {
	if h.fs.HedgeAfter > 0 {
		return h.fs.HedgeAfter
	}
	thr := minHedgeThreshold
	if d := h.donors[donor]; d != nil && d.lat.Count() >= healthMinSamples {
		if t := d.lat.Duration(); t > thr {
			thr = t
		}
	} else if h.fleet.Count() >= healthMinSamples {
		if t := h.fleet.Duration(); t > thr {
			thr = t
		}
	}
	// Clamp the wait for donors whose *median* has crossed the brownout
	// boundary: a sick donor's own p95 tracks its sickness, and an
	// unclamped threshold would adapt upward until hedging never fires
	// for exactly the donors that need it. The sickness test is
	// median-vs-median (like the breaker) so a healthy donor's natural
	// p50->p95 queueing spread never triggers the clamp — healthy donors
	// keep hedging only past their true p95, which is what bounds the
	// background hedge rate.
	if d := h.donors[donor]; d != nil && d.med.Count() >= healthMinSamples && h.fleet.Count() >= healthMinSamples {
		if fleet := h.fleet.Value(); fleet > 0 && d.med.Value() >= brownoutLatFactor*fleet {
			lid := time.Duration(brownoutLatFactor * fleet)
			if lid < minHedgeThreshold {
				lid = minHedgeThreshold
			}
			if thr > lid {
				thr = lid
			}
		}
	}
	return thr
}

// opDeadline resolves the absolute deadline governing one op: the
// process deadline (per-query budget set by the executor) wins, then
// the FS-wide per-op budget, then none.
func (fs *FS) opDeadline(p *sim.Proc) time.Duration {
	if dl := p.Deadline(); dl > 0 {
		return dl
	}
	if fs.DeadlineBudget > 0 {
		return p.Now() + fs.DeadlineBudget
	}
	return 0
}

// tailTolerant reports whether fetchBlock races this process's replica
// reads (hedge, deadline, health scoring) instead of reading inline.
func (fs *FS) tailTolerant(p *sim.Proc) bool {
	return fs.Hedging || fs.HealthChecks || fs.DeadlineBudget > 0 || p.Deadline() > 0
}

// hedgeAllowed enforces the hedge-rate cap.
func (fs *FS) hedgeAllowed() bool {
	c := fs.HedgeRateCap
	if c <= 0 {
		c = DefaultHedgeRateCap
	}
	return float64(fs.HedgedReads) < c*float64(fs.TolerantReads)
}

// quarantineDonor proactively migrates every replica this FS holds on a
// quarantined donor to a healthier one, before the donor's revocation
// (or silent death) arrives. Only stripes with at least two live
// replicas migrate — the copy source must stay online; a last-replica
// stripe keeps serving from the slow donor (deadline budgets bound the
// damage) until the donor either recovers or actually revokes.
func (fs *FS) quarantineDonor(name string) {
	if !fs.Recover {
		return
	}
	for _, f := range fs.files {
		if f.closed || f.deleted || f.unavailable {
			continue
		}
		for s := range f.leases {
			for r := range f.leases[s] {
				l := f.leases[s][r]
				if l == nil || f.down[s][r] || f.repairing[s][r] || l.MR.Owner.Name != name {
					continue
				}
				if f.healthyReplicas(s) < 2 {
					continue
				}
				f.migrateReplica(s, r)
			}
		}
	}
}

// migrateReplica rebuilds replica (s, r) on a new donor while the old
// lease is still live, then releases the old lease. Marking the slot
// down first routes reads and heartbeats away from it immediately; if
// the rebuild fails (donor scarcity) the old lease simply expires
// unrenewed and the scrubber re-kicks the repair later — exactly the
// reactive path, minus the surprise.
func (f *File) migrateReplica(s, r int) {
	old := f.leases[s][r]
	f.down[s][r] = true
	f.repairing[s][r] = true
	f.fs.ProactiveMigrations++
	name := fmt.Sprintf("quarantine-migrate:%s:%d.%d", f.name, s, r)
	f.fs.k.Go(name, func(rp *sim.Proc) {
		f.repairReplica(rp, s, r)
		if !f.closed && !f.deleted && !f.down[s][r] && f.leases[s][r] != old {
			f.fs.Broker.Release(rp, old)
		}
	})
}

// errSlowRead is the deadline-miss error for one block read.
func (f *File) errSlowRead(g int64) error {
	return fmt.Errorf("core: read of block %d of %q blew its deadline budget: %w", g, f.name, fault.ErrSlow)
}

// raceChild is one replica read of a race, pooled per FS (fs.children).
// The race owns it until raceFrame returns. A read still in flight then
// (orphaned) owns itself: it hands its frame and this struct back when
// it lands and touches nothing of the race, which may be running another
// read by then.
type raceChild struct {
	run      func(p *sim.Proc) // c.read, bound once: a spawn allocates only its Proc
	f        *File
	rc       *race // the race it reports to while not orphaned
	g        int64
	mr       *rmem.MR
	frameOff int
	r        int    // replica index
	buf      []byte // pooled frame
	done     bool
	orphaned bool // the race returned while this read was still in flight
	err      error
	verified bool
}

// race is the state one raceFrame shares with its reads and timers,
// pooled per FS (fs.races) and back on the free list when raceFrame
// returns. Its timers are stopped then: a firing still queued finds
// itself stale and neither sets a flag nor wakes anyone (DESIGN §9).
type race struct {
	cond                      *sim.Cond
	hedge, deadline           *sim.Timer
	hedgeFired, deadlineFired bool
	children                  [2]*raceChild // primary, then hedge
	n                         int
}

// raceRead is what a race reports of one of its reads.
type raceRead struct {
	r              int
	done, verified bool
	err            error
}

// raceResult summarizes one raceFrame call.
type raceResult struct {
	winner int  // replica index of the verified winner, -1 if none
	slow   bool // deadline fired before any verified frame
	n      int  // reads launched
	reads  [2]raceRead
}

func (fs *FS) getRace() *race {
	if last := len(fs.races) - 1; last >= 0 {
		rc := fs.races[last]
		fs.races = fs.races[:last]
		return rc
	}
	rc := &race{cond: sim.NewCond(fs.k)}
	rc.hedge = sim.NewTimer(fs.k, func() {
		rc.hedgeFired = true
		rc.cond.Broadcast()
	})
	rc.deadline = sim.NewTimer(fs.k, func() {
		rc.deadlineFired = true
		rc.cond.Broadcast()
	})
	return rc
}

func (fs *FS) getChild() *raceChild {
	if last := len(fs.children) - 1; last >= 0 {
		c := fs.children[last]
		fs.children = fs.children[:last]
		return c
	}
	c := &raceChild{}
	c.run = c.read
	return c
}

// putChild returns c and its frame.
func (fs *FS) putChild(c *raceChild) {
	fs.putFrame(c.buf)
	c.f, c.rc, c.mr, c.buf, c.err = nil, nil, nil, nil, nil
	fs.children = append(fs.children, c)
}

// read is a race child's body: one replica read into its own frame,
// verified and reported to the health tracker however late it lands.
func (c *raceChild) read(cp *sim.Proc) {
	f := c.f
	start := cp.Now()
	err := f.fs.Transport.Read(cp, f.fs.Client, c.mr, c.frameOff, c.buf)
	lat := cp.Now() - start
	verified := err == nil && verifyFrame(c.buf, f.gens[c.g]) == nil
	if h := f.fs.health; h != nil {
		h.observe(c.mr.Owner.Name, lat, err != nil || !verified, cp.Now())
	}
	if c.orphaned {
		f.fs.putChild(c)
		return
	}
	c.err, c.verified, c.done = err, verified, true
	c.rc.cond.Broadcast()
}

// raceFrame reads block g's frame from replica primary, optionally
// hedging to replica hedge when the primary exceeds its adaptive
// threshold, bounded by an absolute deadline (0 = none). The first
// verified frame wins and is swapped into *frame (a pooled frame, which
// goes back to the pool in its place); the loser is abandoned mid-flight
// (bytes discarded, wire cost sunk). Every read reports its true latency
// and outcome to the health tracker when it completes, even if the race
// already returned — in which case it also returns its own frame to the
// pool, so the frame is never re-issued while the transfer can still
// land in it.
func (f *File) raceFrame(p *sim.Proc, g int64, s, frameOff int, frame *[]byte, primary, hedge int, deadline time.Duration) raceResult {
	fs := f.fs
	rc := fs.getRace()
	launch := func(r int) {
		c := fs.getChild()
		c.f, c.rc, c.g, c.frameOff, c.r = f, rc, g, frameOff, r
		c.mr = f.leases[s][r].MR
		c.buf = fs.getFrame()
		c.done, c.orphaned, c.verified = false, false, false
		rc.children[rc.n] = c
		rc.n++
		p.Kernel().Go("read-race", c.run)
	}
	launch(primary)
	hedgeArmed := hedge >= 0 && fs.hedgeAllowed()
	if hedgeArmed {
		// A hedge is named only under Hedging, which builds the tracker.
		rc.hedge.Reset(fs.health.hedgeThreshold(f.leases[s][primary].MR.Owner.Name))
	}
	if deadline > 0 {
		if p.Now() >= deadline {
			rc.deadlineFired = true
		} else {
			rc.deadline.Reset(deadline - p.Now())
		}
	}
	res := raceResult{winner: -1}
race:
	for {
		allDone := true
		for i, c := range rc.children[:rc.n] {
			if c.done && c.verified {
				*frame, c.buf = c.buf, *frame
				res.winner = c.r
				if i > 0 {
					fs.HedgeWins++
				}
				break race
			}
			allDone = allDone && c.done
		}
		if allDone {
			break // every launched read failed; caller moves on
		}
		if rc.deadlineFired {
			res.slow = true
			break
		}
		if rc.hedgeFired && hedgeArmed && rc.n == 1 {
			fs.HedgedReads++
			launch(hedge)
		}
		rc.cond.Wait(p)
	}
	fs.endRace(rc, &res)
	return res
}

// endRace reports rc's reads into res and puts rc back on the free list:
// finished reads go back now, with their frames; the rest are orphaned
// and go back when they land.
func (fs *FS) endRace(rc *race, res *raceResult) {
	rc.hedge.Stop()
	rc.deadline.Stop()
	for i, c := range rc.children[:rc.n] {
		res.reads[i] = raceRead{r: c.r, done: c.done, verified: c.verified, err: c.err}
		if c.done {
			fs.putChild(c)
		} else {
			c.orphaned = true
		}
		rc.children[i] = nil
	}
	res.n = rc.n
	rc.n, rc.hedgeFired, rc.deadlineFired = 0, false, false
	fs.races = append(fs.races, rc)
}

// orderByHealth sorts candidate replicas healthiest-first (stable, so
// replica order breaks ties deterministically). An unhealthy donor due
// a half-open probe is promoted to the front instead: the trickle read
// routed through it is the only way its score can recover, and with
// hedging armed the tail stays capped even if it is still slow.
func (f *File) orderByHealth(s int, cands []int, now time.Duration) {
	h := f.fs.health
	if h == nil || !f.fs.HealthChecks || len(cands) < 2 {
		return
	}
	var rankBuf [4]int
	rank := rankBuf[:0]
	for _, r := range cands {
		d := h.donors[f.leases[s][r].MR.Owner.Name]
		switch {
		case d == nil || d.state == donorHealthy:
			rank = append(rank, 1)
		case now >= d.nextProbe:
			// Promote for one probe and push the next one out now, so a
			// candidate that ends up not being read still waits a full
			// interval before being promoted again.
			rank = append(rank, 0)
			d.nextProbe = now + h.probeEvery()
			f.fs.HealthProbes++
		case d.state == donorBrowned:
			rank = append(rank, 2)
		default:
			rank = append(rank, 3)
		}
	}
	// Insertion sort: a handful of candidates, and nothing escapes.
	for i := 1; i < len(cands); i++ {
		for j := i; j > 0 && rank[j] < rank[j-1]; j-- {
			rank[j], rank[j-1] = rank[j-1], rank[j]
			cands[j], cands[j-1] = cands[j-1], cands[j]
		}
	}
}
