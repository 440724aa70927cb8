// Package core implements the paper's primary contribution: the
// lightweight file API over remote memory (Table 2). A remote file is a
// set of leased, fixed-size memory regions scattered across the cluster's
// memory servers; Create obtains leases, Open connects RDMA flows,
// Read/Write translate file offsets to (server, MR, offset) and issue
// RDMA transfers, Close disconnects, and Delete relinquishes the leases.
//
// The abstraction is deliberately best-effort (Section 4.1.5): remote
// memory is elastic and unreliable, so leases expire under donor memory
// pressure and whole memory servers vanish. The FS survives this in
// four layers:
//
//  1. lease renewal retries transient metastore/broker failures with
//     exponential backoff + jitter (fault.RetryPolicy);
//  2. a revoked or expired stripe puts the file in degraded mode — the
//     surviving stripes stay readable — while a background process
//     leases a replacement MR and restripes the file;
//  3. a per-file Salvage callback repopulates the lost stripe (the
//     buffer-pool extension drops the clean pages it cached there; the
//     semantic cache REDOes the structure from the WAL, §6.3);
//  4. optionally (see Config.Integrity / Config.Replication and
//     integrity.go) every remote block carries a CRC-32C + generation
//     frame verified on read, stripes are replicated K ways across
//     distinct donors, reads fail over to a healthy replica on
//     corruption or revocation with no salvage and no degraded window,
//     and a background scrubber sweeps for latent corruption.
//
// Only when recovery is disabled, or re-leasing fails past the retry
// budget, does the file turn permanently Unavailable and the consumer
// falls back to disk for good. No correctness ever depends on remote
// memory: without integrity frames a failure is always announced
// (revocation), and with them even silent bit flips, torn writes, and
// stale buffers are detected before any byte reaches the engine.
package core

import (
	"errors"
	"fmt"
	"sort"
	"time"

	"remotedb/internal/broker"
	"remotedb/internal/fault"
	"remotedb/internal/hw/nic"
	"remotedb/internal/metrics"
	"remotedb/internal/rmem"
	"remotedb/internal/sim"
	"remotedb/internal/vfs"
)

// ConnectCost is the one-time cost of setting up an RDMA flow (queue
// pair) to one memory server on Open.
const ConnectCost = 100 * time.Microsecond

// Salvage repopulates the byte range [off, off+n) of f after the stripe
// holding it was lost and re-leased: the replacement MR starts zeroed,
// and the callback restores whatever the consumer needs there (or simply
// drops cached state that pointed into the range). It runs in a
// background simulation process after the replacement lease is in place,
// so f is readable and writable again when it is invoked.
type Salvage func(p *sim.Proc, f *File, off, n int64) error

// FS creates and opens remote-memory files for one database server. Its
// knobs are the Config it was built from, normalized by NewFS
// (Replication >= 1 and, above 1, Integrity on).
type FS struct {
	Config
	Broker    *broker.Cluster
	Client    *rmem.Client
	Transport rmem.Transport

	k         *sim.Kernel
	holder    string
	files     map[string]*File
	hbActive  bool
	health    *healthTracker // nil unless Hedging or HealthChecks
	frames    [][]byte       // free list of integrity frames (see integrity.go)
	scratches []*scratch     // free list of request scratch (see io.go)
	races     []*race        // free list of raced-read state (see health.go)
	children  []*raceChild   // free list of race reads (see health.go)

	// Fault-tolerance counters (virtual-time observability).
	Restripes    int64 // stripes (all replicas) successfully re-leased
	Salvages     int64 // salvage callbacks run to completion
	RenewRetries int64 // renewal attempts beyond the first, per RPC
	LostStripes  int64 // whole-stripe-loss events (every replica gone)
	Heartbeats   int64 // batched renewals sent (after retries)

	// Integrity / replication counters (see integrity.go). Counter.N is
	// the event count, Counter.Bytes the logical bytes involved.
	Failovers      metrics.Counter // reads served past a bad/lost replica
	Corruptions    metrics.Counter // blocks that failed verification
	Repairs        metrics.Counter // corrupt replica blocks rewritten from a good copy
	ScrubChecked   metrics.Counter // blocks verified clean by scrubbers
	ReplicaRepairs int64           // replicas re-leased and rebuilt from a peer (no salvage)
	ScrubSweeps    int64           // stripe sweeps completed by scrubbers

	// Pushdown counters (see pushdown.go): pushed range reads issued and
	// the elements that fell back to fetch-and-evaluate-client-side after
	// a donor-side integrity failure or mid-flight revocation.
	PushReads     int64
	PushFallbacks int64

	// Tail-tolerance counters (see health.go).
	TolerantReads       int64 // block fetches that raced their replica reads (fetchBlock)
	HedgedReads         int64 // hedge reads actually fired
	HedgeWins           int64 // hedges that beat the primary with a verified frame
	SlowReads           int64 // reads abandoned over a blown deadline budget (ErrSlow)
	Brownouts           int64 // donor transitions into the browned-out state
	Quarantines         int64 // donor transitions into quarantine
	HealthRecoveries    int64 // donors probed back to healthy
	ProactiveMigrations int64 // replicas migrated off quarantined donors before revocation
	HealthProbes        int64 // trickle reads routed through unhealthy donors
}

// Config parameterizes an FS.
type Config struct {
	Protocol nic.Protocol

	// Tenant is the workload leases are charged to for broker admission
	// (quotas, max-min fairness); empty defaults to the holder name.
	Tenant string

	// HeartbeatEvery is the cadence of the FS's one batched heartbeat
	// process (0 = half the lease TTL): every still-healthy lease of
	// every open file renews in a single broker round trip
	// (Cluster.RenewAll), so renewal load scales with holders, not
	// leases.
	HeartbeatEvery time.Duration

	// Recover enables re-lease/restripe recovery: when a stripe's lease
	// is revoked or expires, the FS leases a replacement MR and invokes
	// the file's Salvage callback instead of declaring the whole file
	// unavailable. Surviving stripes stay readable meanwhile.
	Recover bool

	// Integrity frames every logical block with a CRC-32C checksum and a
	// generation stamp, verified on every read (see integrity.go).
	Integrity bool

	// Replication stripes each file over K <= 64 replicas on distinct
	// donors; values above 1 force Integrity (reads must verify to fail
	// over).
	Replication int

	// ScrubEvery starts a per-file background scrubber sweeping one
	// stripe per tick at this cadence (0 disables). Requires Integrity.
	ScrubEvery time.Duration

	// Retry is the backoff policy for transient broker/metastore
	// failures during renewal and re-leasing.
	Retry fault.RetryPolicy

	// Salvage, when non-nil, is installed on every created file (a
	// per-file SetSalvage overrides it).
	Salvage Salvage

	// DeadlineBudget bounds each read's time in the remote tier (0 =
	// unbounded): a read still in flight past the budget is abandoned
	// with an error wrapping fault.ErrSlow and the caller falls back
	// exactly as for a transient failure. A per-process deadline
	// (sim.Proc.SetDeadline, set from the query executor's per-query
	// budget) takes precedence over this per-op default.
	DeadlineBudget time.Duration

	// Hedging races a replica read against the primary when the primary
	// exceeds an adaptive threshold (the donor's learned p95 latency),
	// taking the first verified frame. Requires Replication > 1 to have
	// any effect. Hedge volume is capped at HedgeRateCap of reads.
	Hedging bool

	// HedgeRateCap is the maximum fraction of reads allowed to hedge
	// (0 = default 0.1), so hedges cannot melt the NIC when the whole
	// fleet slows down at once.
	HedgeRateCap float64

	// HedgeAfter fixes the hedge threshold (0 = adaptive per-donor p95).
	HedgeAfter time.Duration

	// HealthChecks scores every donor's latency/error history, drives
	// the three-state breaker (healthy -> browned-out -> quarantined),
	// deprioritizes browned-out donors for new leases (soft-avoid hints
	// piggybacked on heartbeats), proactively migrates replicas off
	// quarantined donors, and probes unhealthy donors with trickle
	// reads for recovery. See health.go.
	HealthChecks bool
}

// DefaultConfig is the paper's Custom design with recovery on and the
// integrity layer off (the paper's bare best-effort contract).
func DefaultConfig() Config {
	return Config{
		Protocol: nic.ProtoRDMA,
		Recover:  true,
		Retry:    fault.DefaultRetryPolicy(),
	}
}

// NewFS creates a remote file system client on the database server that
// owns client. The client's staging buffers are registered here. b is
// the lease service, of one shard or many. The FS subscribes to the
// service's revoke stream, so repair of a revoked stripe starts the
// moment the broker tears the lease down instead of waiting for the next
// access or renewal to stumble over it.
func NewFS(p *sim.Proc, b *broker.Cluster, client *rmem.Client, cfg Config) *FS {
	if cfg.Replication > 1 {
		// Failover needs verification to tell a good replica from a bad
		// one, so replication implies integrity frames.
		cfg.Integrity = true
	}
	if cfg.Replication < 1 {
		cfg.Replication = 1
	}
	if cfg.Replication > 64 {
		panic("core: Replication above 64 replicas per stripe")
	}
	fs := &FS{
		Config:    cfg,
		Broker:    b,
		Client:    client,
		Transport: rmem.NewTransport(cfg.Protocol),
		k:         p.Kernel(),
		holder:    client.Server.Name,
		files:     make(map[string]*File),
	}
	if fs.Hedging || fs.HealthChecks {
		fs.health = newHealthTracker(fs)
	}
	b.OnRevoke(fs.holder, fs.onRevoked)
	return fs
}

// onRevoked is the FS's revoke-watch: map the torn-down lease back to
// its (file, stripe, replica) slot and start repair. It runs inside the
// revoking process, so it only flips flags and spawns repair procs.
func (fs *FS) onRevoked(l *broker.Lease) {
	for _, f := range fs.files {
		if f.closed || f.deleted || f.unavailable {
			continue
		}
		for s, reps := range f.leases {
			for r, cur := range reps {
				if cur == l {
					f.replicaLost(s, r)
					return
				}
			}
		}
	}
}

// File is a remote-memory file (vfs.File) striped over leased MRs, K
// replica leases per stripe (K is 1 unless FS.Replication raises it).
type File struct {
	fs        *FS
	name      string
	size      int64
	mrSize    int64             // physical bytes of each leased MR
	stripeCap int64             // logical bytes per stripe (== mrSize unless framed)
	leases    [][]*broker.Lease // [stripe][replica]

	open        bool
	closed      bool
	deleted     bool
	unavailable bool // terminal: recovery disabled or re-lease failed
	renewStop   bool

	down      [][]bool // [stripe][replica]: lease lost, replacement not in place
	repairing [][]bool // [stripe][replica]: a repair process is running
	salvage   Salvage

	// Integrity state (nil/empty unless FS.Integrity): the expected
	// generation of every logical block (0 = never written; reads serve
	// zeros without touching remote memory) and the blocks for which no
	// verifiable copy survives (reads fail with vfs.ErrCorrupt until
	// overwritten).
	gens        []uint64
	poisoned    map[int64]bool
	scrubCursor int

	connected map[string]bool

	Reads, Writes      int64
	BytesRead, Written int64
}

// Errors returned by the remote file layer, wrapped over the
// repository-wide fault taxonomy where a class applies.
var (
	ErrExists    = errors.New("core: file already exists")
	ErrNotFound  = fmt.Errorf("core: file does not exist (%w)", fault.ErrNotFound)
	ErrNotOpen   = errors.New("core: file not open")
	ErrTooLarge  = errors.New("core: access beyond file size")
	ErrNoLeases  = fmt.Errorf("core: could not lease remote memory (%w)", fault.ErrUnavailable)
	ErrAlignment = errors.New("core: file size must be positive")
)

// request leases n MRs, retrying transient broker failures per the FS
// retry policy.
func (fs *FS) request(p *sim.Proc, n int) ([]*broker.Lease, error) {
	return fs.requestAvoiding(p, n, nil)
}

// requestAvoiding leases n MRs placed on no donor named in avoid (the
// replica anti-affinity constraint), retrying transient failures.
func (fs *FS) requestAvoiding(p *sim.Proc, n int, avoid map[string]bool) ([]*broker.Lease, error) {
	spec := broker.RequestSpec{
		Holder: fs.holder,
		N:      n,
		Place:  broker.PlaceSpread,
		Avoid:  avoid,
		Tenant: fs.Tenant,
	}
	if fs.HealthChecks {
		// Deprioritize donors our own health scoring has browned out or
		// quarantined; the broker may know about more via other holders'
		// piggybacked reports.
		spec.SoftAvoid = fs.health.avoidSet()
	}
	var out []*broker.Lease
	err := fault.Retry(p, fs.Retry, func() error {
		leases, err := fs.Broker.Request(p, spec)
		if err != nil {
			return err
		}
		out = leases
		return nil
	})
	return out, err
}

// donorSet collects the donor servers of the given leases, for use as an
// anti-affinity avoid set.
func donorSet(leases []*broker.Lease) map[string]bool {
	avoid := make(map[string]bool, len(leases))
	for _, l := range leases {
		if l != nil {
			avoid[l.MR.Owner.Name] = true
		}
	}
	return avoid
}

// Create leases remote MRs backing a file of the given size — K MRs per
// stripe on distinct donors when replication is on. The file still needs
// Open before I/O.
func (fs *FS) Create(p *sim.Proc, name string, size int64) (*File, error) {
	if _, dup := fs.files[name]; dup {
		return nil, ErrExists
	}
	if size <= 0 {
		return nil, ErrAlignment
	}
	probe, err := fs.request(p, 1)
	if err != nil {
		return nil, fmt.Errorf("%w: %w", ErrNoLeases, err)
	}
	mrSize := int64(probe[0].MR.Size())
	stripeCap := mrSize
	if fs.Integrity {
		stripeCap = StripeCapacity(int(mrSize), BlockSize)
		if stripeCap <= 0 {
			fs.Broker.Release(p, probe[0])
			return nil, fmt.Errorf("core: MR size %d cannot hold one %d-byte framed block", mrSize, BlockSize)
		}
	}
	k := fs.Replication
	need := int((size + stripeCap - 1) / stripeCap)
	releaseAll := func(stripes [][]*broker.Lease) {
		for _, reps := range stripes {
			for _, l := range reps {
				if l != nil {
					fs.Broker.Release(p, l)
				}
			}
		}
	}
	leases := make([][]*broker.Lease, need)
	for s := range leases {
		leases[s] = make([]*broker.Lease, k)
	}
	leases[0][0] = probe[0]
	for s := 0; s < need; s++ {
		for r := 0; r < k; r++ {
			if leases[s][r] != nil {
				continue
			}
			var avoid map[string]bool
			if r > 0 {
				avoid = donorSet(leases[s][:r])
			}
			got, err := fs.requestAvoiding(p, 1, avoid)
			if err != nil {
				releaseAll(leases)
				return nil, fmt.Errorf("%w: %w", ErrNoLeases, err)
			}
			leases[s][r] = got[0]
		}
	}
	f := &File{
		fs:        fs,
		name:      name,
		size:      size,
		mrSize:    mrSize,
		stripeCap: stripeCap,
		leases:    leases,
		down:      makeGrid(need, k),
		repairing: makeGrid(need, k),
		salvage:   fs.Salvage,
		connected: make(map[string]bool),
	}
	if fs.Integrity {
		f.gens = make([]uint64, (size+BlockSize-1)/BlockSize)
	}
	fs.files[name] = f
	if !fs.hbActive {
		fs.hbActive = true
		fs.k.Go("lease-heartbeat:"+fs.holder, fs.heartbeatLoop)
	}
	if fs.ScrubEvery > 0 && fs.Integrity {
		p.Kernel().Go("scrub:"+name, f.scrubLoop)
	}
	return f, nil
}

func makeGrid(stripes, k int) [][]bool {
	g := make([][]bool, stripes)
	for i := range g {
		g[i] = make([]bool, k)
	}
	return g
}

// Lookup returns a created file without opening connections (used by
// observability and the fault-injection harness).
func (fs *FS) Lookup(name string) (*File, bool) {
	f, ok := fs.files[name]
	return f, ok
}

// Open connects RDMA flows to every memory server backing the file.
func (fs *FS) Open(p *sim.Proc, name string) (*File, error) {
	f, ok := fs.files[name]
	if !ok {
		return nil, ErrNotFound
	}
	return f, f.OpenConn(p)
}

// OpenConn establishes connections for an already-created file.
func (f *File) OpenConn(p *sim.Proc) error {
	if f.closed || f.deleted {
		return vfs.ErrClosed
	}
	for _, reps := range f.leases {
		for _, l := range reps {
			f.connect(p, l.MR.Owner.Name)
		}
	}
	f.open = true
	return nil
}

func (f *File) connect(p *sim.Proc, server string) {
	if !f.connected[server] {
		p.Sleep(ConnectCost)
		f.connected[server] = true
	}
}

// CloseAll closes every file of this FS (stopping lease-renewal
// processes); leases stay valid until they expire or the files are
// Deleted. Call at the end of an experiment so the simulation's event
// queue can drain.
func (fs *FS) CloseAll(p *sim.Proc) {
	for _, f := range fs.files {
		f.Close(p)
	}
}

// Delete closes the file and relinquishes all its leases.
func (fs *FS) Delete(p *sim.Proc, name string) error {
	f, ok := fs.files[name]
	if !ok {
		return ErrNotFound
	}
	f.deleted = true
	f.open = false
	f.renewStop = true
	for _, reps := range f.leases {
		for _, l := range reps {
			fs.Broker.Release(p, l)
		}
	}
	delete(fs.files, name)
	return nil
}

// SetSalvage installs the per-file stripe-repopulation callback,
// overriding the FS-wide default. Passing nil restores "no salvage":
// re-leased stripes come back zeroed.
func (f *File) SetSalvage(fn Salvage) { f.salvage = fn }

// leaseRef locates one lease's slot for the heartbeat cohort.
type leaseRef struct {
	f    *File
	s, r int
}

// active reports whether f still wants its leases kept alive.
func (f *File) active() bool {
	return !f.closed && !f.deleted && !f.unavailable && !f.renewStop
}

// heartbeatLoop is the FS-wide batched renewal process: each tick it
// gathers every healthy lease of every active file into one cohort and
// renews it with a single Cluster.RenewAll call — one broker round
// trip per holder per tick, regardless of how many leases the holder
// has. Leases the service reports individually dead go to the repair
// path; a transport failure that outlives the retry budget means the
// whole cohort missed its heartbeat and every member is treated as
// lost. The loop exits when no file is active (so experiment event
// queues drain) and restarts on the next Create.
func (fs *FS) heartbeatLoop(p *sim.Proc) {
	interval := fs.HeartbeatEvery
	if interval <= 0 {
		interval = fs.Broker.LeaseTTL() / 2
	}
	for {
		p.Sleep(interval)
		names := make([]string, 0, len(fs.files))
		for name := range fs.files {
			names = append(names, name)
		}
		sort.Strings(names)
		var cohort []*broker.Lease
		var refs []leaseRef
		anyActive := false
		for _, name := range names {
			f := fs.files[name]
			if !f.active() {
				continue
			}
			anyActive = true
			for s := range f.leases {
				for r := range f.leases[s] {
					if f.down[s][r] || f.repairing[s][r] {
						continue
					}
					cohort = append(cohort, f.leases[s][r])
					refs = append(refs, leaseRef{f, s, r})
				}
			}
		}
		if !anyActive {
			fs.hbActive = false
			return
		}
		if len(cohort) == 0 {
			continue // everything is under repair; check again next tick
		}
		attempts := 0
		var failed []*broker.Lease
		err := fault.Retry(p, fs.Retry, func() error {
			attempts++
			var rerr error
			failed, rerr = fs.Broker.RenewAll(p, fs.holder, cohort)
			return rerr
		})
		if attempts > 1 {
			fs.RenewRetries += int64(attempts - 1)
		}
		fs.Heartbeats++
		if err == nil && fs.HealthChecks {
			// Piggyback the current slow-donor set on the heartbeat that
			// just went through (same RPC in a real system); the broker
			// deprioritizes these donors for every holder's new leases.
			fs.Broker.ReportDonorHealth(fs.holder, fs.health.slowDonors())
		}
		if err != nil {
			// The broker/metastore stayed unreachable past the retry
			// budget: nothing in the cohort was renewed, so the whole
			// cohort is headed for expiry together.
			for _, ref := range refs {
				ref.f.replicaLost(ref.s, ref.r)
			}
			continue
		}
		if len(failed) > 0 {
			byLease := make(map[*broker.Lease]leaseRef, len(cohort))
			for i, l := range cohort {
				byLease[l] = refs[i]
			}
			for _, l := range failed {
				if ref, ok := byLease[l]; ok {
					ref.f.replicaLost(ref.s, ref.r)
				}
			}
		}
	}
}

// replicaLost handles the loss of one replica of stripe s. With a
// surviving replica the file keeps serving with no degraded window and a
// background process rebuilds the lost replica from a peer (no salvage).
// When every replica is gone the stripe takes the legacy degraded-mode
// path: re-lease, salvage, or — with recovery disabled — permanent
// unavailability. It takes no process: it only flips flags and spawns
// repair procs on the FS kernel, so revoke-watches can call it from any
// context.
func (f *File) replicaLost(s, r int) {
	if f.closed || f.deleted || f.unavailable {
		return
	}
	if f.down[s][r] || f.repairing[s][r] {
		return // already being handled
	}
	f.down[s][r] = true
	if f.healthyReplicas(s) > 0 {
		if !f.fs.Recover {
			return // keep serving from survivors; factor stays reduced
		}
		f.repairing[s][r] = true
		name := fmt.Sprintf("replica-repair:%s:%d.%d", f.name, s, r)
		f.fs.k.Go(name, func(rp *sim.Proc) { f.repairReplica(rp, s, r) })
		return
	}
	// Whole stripe gone.
	if !f.fs.Recover {
		f.unavailable = true
		return
	}
	f.fs.LostStripes++
	for i := range f.down[s] {
		f.down[s][i] = true
		f.repairing[s][i] = true
	}
	name := fmt.Sprintf("restripe:%s:%d", f.name, s)
	f.fs.k.Go(name, func(rp *sim.Proc) { f.repairStripe(rp, s) })
}

// underRepair reports whether any replica of stripe s has an active
// repair (replica rebuild or full restripe+salvage) in flight.
func (f *File) underRepair(s int) bool {
	for r := range f.repairing[s] {
		if f.repairing[s][r] {
			return true
		}
	}
	return false
}

// healthyReplicas counts stripe s replicas not currently down.
func (f *File) healthyReplicas(s int) int {
	n := 0
	for r := range f.down[s] {
		if !f.down[s][r] {
			n++
		}
	}
	return n
}

// repairStripe re-leases every replica of stripe s (retrying with
// backoff), swaps them into the stripe table, and runs the salvage
// callback to repopulate the range. If re-leasing fails past the retry
// budget the file turns permanently unavailable.
func (f *File) repairStripe(p *sim.Proc, s int) {
	defer func() {
		for r := range f.repairing[s] {
			f.repairing[s][r] = false
		}
	}()
	k := len(f.leases[s])
	fresh := make([]*broker.Lease, 0, k)
	releaseFresh := func() {
		for _, l := range fresh {
			f.fs.Broker.Release(p, l)
		}
	}
	for r := 0; r < k; r++ {
		got, err := f.fs.requestAvoiding(p, 1, donorSet(fresh))
		if f.closed || f.deleted {
			if err == nil {
				fresh = append(fresh, got[0])
			}
			releaseFresh()
			return
		}
		if err != nil {
			releaseFresh()
			f.unavailable = true
			return
		}
		l := got[0]
		if int64(l.MR.Size()) != f.mrSize {
			// Replacement pools must match the stripe geometry; a mismatch
			// means the cluster was reconfigured under us.
			f.fs.Broker.Release(p, l)
			releaseFresh()
			f.unavailable = true
			return
		}
		fresh = append(fresh, l)
	}
	for r := 0; r < k; r++ {
		f.connect(p, fresh[r].MR.Owner.Name)
		f.leases[s][r] = fresh[r]
		f.down[s][r] = false
	}
	if f.fs.Integrity {
		// The replacement MRs are zeroed: reset the range's generations
		// (reads serve zeros again) and clear any poison — the loss is
		// announced below via salvage, not silent.
		lo, hi := f.stripeBlockRange(s)
		for g := lo; g < hi; g++ {
			f.gens[g] = 0
			delete(f.poisoned, g)
		}
	}
	f.fs.Restripes++
	if f.salvage != nil {
		off := int64(s) * f.stripeCap
		n := f.stripeCap
		if off+n > f.size {
			n = f.size - off
		}
		if err := f.salvage(p, f, off, n); err == nil {
			f.fs.Salvages++
		}
	}
}

// Name returns the file name.
func (f *File) Name() string { return f.name }

// Size returns the created size.
func (f *File) Size() int64 { return f.size }

// Unavailable reports whether the file lost its backing memory for good
// (recovery disabled, or a replacement lease could not be obtained).
func (f *File) Unavailable() bool { return f.unavailable }

// Degraded reports whether any replica is currently lost or under
// repair. With replication this no longer implies failing reads — a
// stripe with one healthy replica serves normally.
func (f *File) Degraded() bool {
	for s := range f.down {
		for r := range f.down[s] {
			if f.down[s][r] || f.repairing[s][r] {
				return true
			}
		}
	}
	return false
}

// Stripes returns the stripe count.
func (f *File) Stripes() int { return len(f.leases) }

// Replicas returns the per-stripe replica count.
func (f *File) Replicas() int {
	if len(f.leases) == 0 {
		return 0
	}
	return len(f.leases[0])
}

// LeaseIDs returns the IDs of the primary-replica leases backing the
// file, in stripe order. Fault-injection uses them to revoke specific
// stripes.
func (f *File) LeaseIDs() []broker.LeaseID {
	out := make([]broker.LeaseID, len(f.leases))
	for s, reps := range f.leases {
		out[s] = reps[0].ID
	}
	return out
}

// StripeServers returns the donor servers of stripe s's replicas, in
// replica order (the anti-affinity invariant says they are distinct).
func (f *File) StripeServers(s int) []string {
	out := make([]string, len(f.leases[s]))
	for r, l := range f.leases[s] {
		out[r] = l.MR.Owner.Name
	}
	return out
}

// Servers returns the distinct memory servers backing the file.
func (f *File) Servers() []string {
	seen := make(map[string]bool)
	var out []string
	for _, reps := range f.leases {
		for _, l := range reps {
			name := l.MR.Owner.Name
			if !seen[name] {
				seen[name] = true
				out = append(out, name)
			}
		}
	}
	return out
}

func (f *File) check(off int64, n int) error {
	if f.closed || f.deleted {
		return vfs.ErrClosed
	}
	if !f.open {
		return ErrNotOpen
	}
	if f.unavailable {
		return vfs.ErrUnavailable
	}
	if off < 0 || off+int64(n) > f.size {
		return ErrTooLarge
	}
	return nil
}

// stripeErr is the degraded-mode error for one lost stripe; surviving
// stripes keep serving.
func (f *File) stripeErr(idx int) error {
	return fmt.Errorf("core: stripe %d of %q lost, repair in progress: %w", idx, f.name, vfs.ErrUnavailable)
}

// Close tears down connections; leases are kept (reopen is possible)
// until Delete.
func (f *File) Close(p *sim.Proc) error {
	f.open = false
	f.closed = true
	f.renewStop = true
	return nil
}
