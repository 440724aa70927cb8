// Fault injection for the experiment harness: deterministic, scheduled
// failures of the remote-memory machinery. Because the simulation is a
// discrete-event system with a virtual clock, an injected fault fires at
// an exact simulated instant, so a fixed seed reproduces the identical
// failure interleaving run after run — the property the recovery tests
// and the "faults" experiment rely on.
package exp

import (
	"fmt"
	"sort"
	"time"

	"remotedb/internal/broker"
	"remotedb/internal/cluster"
	"remotedb/internal/core"
	"remotedb/internal/sim"
	"remotedb/internal/workload"
)

// FaultKind enumerates the injectable failures.
type FaultKind int

const (
	// FaultProxyCrash fails memory server number N (its proxy stops
	// responding and every MR it donated is revoked) — the paper's
	// remote-node failure.
	FaultProxyCrash FaultKind = iota
	// FaultPartition cuts the broker and every lease holder off from the
	// metastore ensemble: renewals and grants time out until FaultHeal.
	FaultPartition
	// FaultHeal ends a metastore partition.
	FaultHeal
	// FaultRevocationStorm revokes the N oldest live leases at once —
	// donor memory pressure reclaiming regions in bulk.
	FaultRevocationStorm
	// FaultRevokeFile revokes N leases backing the named remote file
	// (stripe-targeted revocation; N<=0 means every stripe).
	FaultRevokeFile
	// FaultReplenish brings a fresh memory server with N MRs into the
	// cluster — the donor-side recovery that refills the broker's pool.
	FaultReplenish
	// FaultBitFlip flips one bit in block N of the named file, on
	// replica Replica — silent media corruption. Requires integrity
	// framing (it is a no-op otherwise: there is no frame to corrupt).
	FaultBitFlip
	// FaultTornWrite clobbers the second half of block N's stored frame
	// on replica Replica — a write that stopped midway.
	FaultTornWrite
	// FaultStaleSnapshot records the current stored frame of block N on
	// replica Replica, to be resurrected later by FaultStaleRestore.
	FaultStaleSnapshot
	// FaultStaleRestore writes every frame snapshot taken for the named
	// file back over the current contents — a stale replica
	// resurrection: old data with a valid checksum, caught only by the
	// generation stamp.
	FaultStaleRestore
)

func (fk FaultKind) String() string {
	switch fk {
	case FaultProxyCrash:
		return "proxy-crash"
	case FaultPartition:
		return "metastore-partition"
	case FaultHeal:
		return "metastore-heal"
	case FaultRevocationStorm:
		return "revocation-storm"
	case FaultRevokeFile:
		return "revoke-file"
	case FaultReplenish:
		return "replenish"
	case FaultBitFlip:
		return "bit-flip"
	case FaultTornWrite:
		return "torn-write"
	case FaultStaleSnapshot:
		return "stale-snapshot"
	case FaultStaleRestore:
		return "stale-restore"
	}
	return "unknown"
}

// FaultEvent is one scheduled failure.
type FaultEvent struct {
	At   time.Duration // absolute simulation time
	Kind FaultKind
	N    int    // proxy index, storm width, stripe/block count, or MR count
	Name string // target file (FaultRevokeFile and the corruption kinds)
	// Replica selects which copy of the block the corruption kinds hit
	// (0 is the primary; only meaningful with replication).
	Replica int
}

// InjectFaults schedules the events on the bed's kernel. Call before
// (or while) the workload runs; each event fires exactly at its virtual
// time. Injected-fault counts are recorded on the bed's broker and
// metastore counters.
func (bed *Bed) InjectFaults(events []FaultEvent) {
	for _, ev := range events {
		ev := ev
		name := fmt.Sprintf("fault:%s@%v", ev.Kind, ev.At)
		bed.K.GoAt(ev.At, name, func(p *sim.Proc) { bed.applyFault(p, ev) })
	}
}

func (bed *Bed) applyFault(p *sim.Proc, ev FaultEvent) {
	switch ev.Kind {
	case FaultProxyCrash:
		if ev.N >= 0 && ev.N < len(bed.Proxies) {
			bed.Broker.FailProxy(bed.Proxies[ev.N])
		}
	case FaultPartition:
		if bed.Store != nil {
			bed.Store.SetPartitioned(true)
		}
	case FaultHeal:
		if bed.Store != nil {
			bed.Store.SetPartitioned(false)
		}
	case FaultRevocationStorm:
		bed.Broker.RevokeOldest(ev.N)
	case FaultRevokeFile:
		if bed.FS == nil {
			return
		}
		f, ok := bed.FS.Lookup(ev.Name)
		if !ok {
			return
		}
		ids := f.LeaseIDs()
		n := ev.N
		if n <= 0 || n > len(ids) {
			n = len(ids)
		}
		for i := 0; i < n; i++ {
			bed.Broker.Revoke(ids[i])
		}
	case FaultReplenish:
		m := bed.newMemServer(p, ev.N)
		if m != nil {
			bed.Mems = append(bed.Mems, m.Server)
			bed.Proxies = append(bed.Proxies, m)
		}
	case FaultBitFlip, FaultTornWrite, FaultStaleSnapshot, FaultStaleRestore:
		bed.applyCorruption(ev)
	}
}

// frameSnap identifies one recorded frame snapshot.
type frameSnap struct {
	name    string
	block   int
	replica int
}

// applyCorruption pokes stored bytes directly in a donor's memory
// region, bypassing the transport: the FS observes nothing until a read,
// scrub, or repair verifies the frame. Corruption targets the first
// written block at or after index N (wrapping), so storms written
// against a warm file always land on real data deterministically.
func (bed *Bed) applyCorruption(ev FaultEvent) {
	if bed.FS == nil {
		return
	}
	f, ok := bed.FS.Lookup(ev.Name)
	if !ok {
		return
	}
	if ev.Kind == FaultStaleRestore {
		// Resurrect every snapshot recorded for this file, in a fixed
		// order (the poke order cannot affect the final state, but the
		// harness stays deterministic on principle).
		keys := make([]frameSnap, 0, len(bed.snaps))
		for k := range bed.snaps {
			if k.name == ev.Name {
				keys = append(keys, k)
			}
		}
		sort.Slice(keys, func(i, j int) bool {
			if keys[i].block != keys[j].block {
				return keys[i].block < keys[j].block
			}
			return keys[i].replica < keys[j].replica
		})
		for _, k := range keys {
			f.RestoreBlockFrame(k.block, k.replica, bed.snaps[k])
			delete(bed.snaps, k)
		}
		return
	}
	g := pickWrittenBlock(f, ev.N)
	if g < 0 {
		return
	}
	switch ev.Kind {
	case FaultBitFlip:
		f.InjectBlockFlip(g, ev.Replica)
	case FaultTornWrite:
		f.InjectBlockTear(g, ev.Replica)
	case FaultStaleSnapshot:
		if snap := f.SnapshotBlockFrame(g, ev.Replica); snap != nil {
			if bed.snaps == nil {
				bed.snaps = make(map[frameSnap][]byte)
			}
			bed.snaps[frameSnap{ev.Name, g, ev.Replica}] = snap
		}
	}
}

// pickWrittenBlock returns the first written block at or after index
// from, wrapping to the start; -1 if the file has no written block (or
// no integrity framing at all).
func pickWrittenBlock(f *core.File, from int) int {
	n := f.Blocks()
	if n == 0 {
		return -1
	}
	if from < 0 || from >= n {
		from = 0
	}
	for i := 0; i < n; i++ {
		g := (from + i) % n
		if f.BlockWritten(g) {
			return g
		}
	}
	return -1
}

// newMemServer adds one more donor with mrs MRs to the running cluster.
func (bed *Bed) newMemServer(p *sim.Proc, mrs int) *broker.Proxy {
	if bed.Broker == nil || mrs <= 0 {
		return nil
	}
	name := fmt.Sprintf("mem%d", len(bed.Mems)+1)
	s := cluster.NewServer(bed.K, name, serverConfig(bed.Cfg.Spindles))
	px, err := bed.Broker.AddProxy(p, s, bed.Cfg.MRBytes, mrs)
	if err != nil {
		return nil
	}
	return px
}

// FaultPhases is the result of RunFaultRecovery: RangeScan throughput in
// three consecutive windows — before any fault, while stripes are being
// revoked and repaired, and after recovery settles.
type FaultPhases struct {
	Design  Design
	Healthy float64 // queries/sec, no faults
	During  float64 // queries/sec, faults firing mid-window
	After   float64 // queries/sec, post-recovery

	Errors     int64 // engine-visible query errors across all windows
	Lost       int64 // stripe-loss events detected by the FS
	Restripes  int64 // stripes re-leased
	Salvages   int64 // salvage callbacks completed
	Timeouts   int64 // metastore operations rejected while partitioned
	Recovered  bool  // throughput after faults within 20% of healthy
	ExtHealthy bool  // BPExt still attached at the end
}

// FaultRecoveryParams tunes RunFaultRecovery.
type FaultRecoveryParams struct {
	Rows    int
	Clients int
	Window  time.Duration // length of each of the three phases
}

// FaultRecoveryGeometry keeps the experiment fast: a small table and
// short windows still exercise every recovery path. quick halves the
// table and shortens the windows; the injected storm fires within the
// first 70ms of phase 2 either way.
func FaultRecoveryGeometry(quick bool) FaultRecoveryParams {
	if quick {
		return FaultRecoveryParams{Rows: 30000, Clients: 16, Window: 150 * time.Millisecond}
	}
	return FaultRecoveryParams{Rows: 60000, Clients: 16, Window: 250 * time.Millisecond}
}

// RunFaultRecovery measures RangeScan throughput through a fault storm
// on the Custom design: mid-run, every BPExt stripe is revoked and a
// short metastore partition delays the re-leases. The engine must see
// zero errors (the extension degrades to data-file reads while stripes
// repair) and throughput must recover once restriping completes.
func RunFaultRecovery(seed int64, prm FaultRecoveryParams) (*FaultPhases, error) {
	out := &FaultPhases{Design: DesignCustom}
	err := RunInSim(seed, 2*time.Hour, func(p *sim.Proc) error {
		cfg := DefaultBedConfig(DesignCustom)
		// Renew aggressively and retry long enough to ride out the
		// injected partition.
		cfg.Broker.LeaseTTL = 100 * time.Millisecond
		cfg.ExpireEvery = 25 * time.Millisecond
		cfg.FS.Retry.MaxAttempts = 12
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

		// Phase 1: healthy.
		warm := 100 * time.Millisecond
		res := w.Run(p, warm, prm.Window)
		out.Healthy = res.Throughput()
		out.Errors += res.Errors

		// Phase 2: revoke every BPExt stripe a little into the window,
		// inside a metastore partition so renewals and the first
		// re-lease attempts must retry. The partition outlasts one full
		// renewal interval (LeaseTTL/2), so at least one renew tick is
		// guaranteed to land inside it regardless of phase alignment —
		// the batched pool can go tens of milliseconds without touching
		// the extension, so revocation discovery is bounded by the
		// renewal cadence, not by I/O errors. The revoked MRs are
		// destroyed, so a fresh donor replenishes the pool once the
		// partition heals — the repairs' backoff rides out the gap.
		now := p.Now()
		stripes := int(cfg.BPExtBytes / int64(cfg.MRBytes))
		bed.InjectFaults([]FaultEvent{
			{At: now + 20*time.Millisecond, Kind: FaultPartition},
			{At: now + 25*time.Millisecond, Kind: FaultRevokeFile, Name: "bpext"},
			{At: now + 90*time.Millisecond, Kind: FaultHeal},
			{At: now + 100*time.Millisecond, Kind: FaultReplenish, N: stripes},
		})
		res = w.Run(p, 0, prm.Window)
		out.During = res.Throughput()
		out.Errors += res.Errors

		// Phase 3: recovered.
		res = w.Run(p, 50*time.Millisecond, prm.Window)
		out.After = res.Throughput()
		out.Errors += res.Errors

		out.Lost = bed.FS.LostStripes
		out.Restripes = bed.FS.Restripes
		out.Salvages = bed.FS.Salvages
		if bed.Store != nil {
			out.Timeouts = bed.Store.Timeouts
		}
		out.Recovered = out.After >= 0.8*out.Healthy
		out.ExtHealthy = bed.Eng.BP.ExtensionHealthy()
		if bpx, ok := bed.BPExtFile.(*core.File); ok && bpx.Unavailable() {
			out.ExtHealthy = false
		}
		bed.Close(p)
		return nil
	})
	return out, err
}

// reportFaults prints the fault-recovery experiment.
func reportFaults(seed int64, quick bool, rep *Report) error {
	rep.Println("Fault recovery (Custom design): RangeScan through a BPExt")
	rep.Println("revocation storm inside a metastore partition; the FS re-leases")
	rep.Println("and restripes while the engine keeps running off the data file.")
	res, err := RunFaultRecovery(seed, FaultRecoveryGeometry(quick))
	if err != nil {
		return err
	}
	rep.Printf("  throughput q/s:  healthy=%.0f  during=%.0f  after=%.0f\n",
		res.Healthy, res.During, res.After)
	rep.Printf("  stripes: lost=%d re-leased=%d salvaged=%d\n",
		res.Lost, res.Restripes, res.Salvages)
	rep.Printf("  metastore timeouts while partitioned: %d\n", res.Timeouts)
	rep.Printf("  engine-visible query errors: %d\n", res.Errors)
	rep.Printf("  recovered=%v bpext-healthy=%v\n", res.Recovered, res.ExtHealthy)
	rep.Metric("healthy_queries_per_sec", res.Healthy)
	rep.Metric("during_queries_per_sec", res.During)
	rep.Metric("after_queries_per_sec", res.After)
	rep.Metric("lost_stripes", float64(res.Lost))
	rep.Metric("restripes", float64(res.Restripes))
	rep.Metric("salvages", float64(res.Salvages))
	rep.Metric("metastore_timeouts", float64(res.Timeouts))
	rep.Metric("errors", float64(res.Errors))
	rep.MetricBool("bpext_healthy", res.ExtHealthy)
	return nil
}
