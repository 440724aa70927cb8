package broker

import (
	"fmt"
	"hash/fnv"
	"sort"
	"time"

	"remotedb/internal/broker/metastore"
	"remotedb/internal/cluster"
	"remotedb/internal/fault"
	"remotedb/internal/metrics"
	"remotedb/internal/rmem"
	"remotedb/internal/sim"
)

// ErrShardDown is returned while a lease's shard replica is failed and
// not yet recovered. It is transient: handoff via RecoverShard restores
// service, so it wraps fault.ErrRetryable.
var ErrShardDown = fmt.Errorf("broker: shard replica down (%w)", fault.ErrRetryable)

// Config parameterizes the lease service.
type Config struct {
	LeaseTTL time.Duration

	// Quotas caps each tenant's leased bytes (hard limit); a tenant
	// defaults to the requesting holder, so a quota keyed by a holder's
	// name caps that server's share. Weights give tenants max-min shares
	// enforced while donors are scarce — when a grant would eat into the
	// last quarter of the pool. This is the "fairness across multiple
	// workloads" brokering policy the paper lists as future work in
	// Section 7. Leave both nil to disable admission.
	Quotas  map[string]int64
	Weights map[string]float64
}

// namespace roots the metastore subtrees of the shards: shard i owns
// <namespace>/shard<i>.
const namespace = "/broker"

// DefaultConfig uses a 10 s lease TTL and no admission.
func DefaultConfig() Config { return Config{LeaseTTL: 10 * time.Second} }

// RequestSpec describes one lease request: who, how many, where, and the
// tenant identity admission decisions are made on.
type RequestSpec struct {
	// Holder is the database server the leases are for; renewal routing
	// and batched heartbeats key on it.
	Holder string
	// N is how many whole MRs to lease.
	N int
	// Place chooses how the MRs spread over donor servers.
	Place Placement
	// Avoid names donor servers the grant must not touch (replica
	// anti-affinity). Under scarcity the constraint is never weakened:
	// an unsatisfiable avoid set fails with ErrNoMemory.
	Avoid map[string]bool
	// SoftAvoid names donor servers to deprioritize, not exclude: a
	// browned-out donor (slow, error-prone, about to reclaim) should not
	// receive new leases while healthy donors have free MRs, but under
	// scarcity a lease on a slow donor still beats no lease at all.
	// Holders fill it from their own health scoring; the broker unions
	// in reports piggybacked on other holders' heartbeats
	// (ReportDonorHealth).
	SoftAvoid map[string]bool
	// Tenant is the workload the grant is charged to for quota and
	// fairness purposes; empty defaults to Holder.
	Tenant string
	// Priority breaks admission ties when donors are scarce (higher
	// wins); 0 is the common case.
	Priority int
}

// normalized fills the defaulted fields.
func (spec RequestSpec) normalized() RequestSpec {
	if spec.Tenant == "" {
		spec.Tenant = spec.Holder
	}
	return spec
}

// RevokeWatch observes one involuntary lease teardown (expiry, donor
// pressure, proxy crash, targeted revocation — everything except the
// holder's own Release). It runs synchronously inside the revoking
// process, so implementations must only flip flags or spawn processes,
// never sleep.
type RevokeWatch func(l *Lease)

// Cluster is the lease service. It shards the lease space across N
// broker replicas, removing the single-coordinator ceiling:
//
//   - Holders and donors map to shards by rendezvous hashing, so adding
//     or failing one replica only moves that replica's keys.
//   - Each shard persists under its own metastore namespace
//     (<ns>/shard<i>), and shards mint disjoint lease IDs by striding,
//     so a lease's shard is recoverable as id mod stride.
//   - Admission (tenant quotas, weighted max-min under scarcity) and
//     tenant accounting run once, here at the router — per-shard
//     enforcement would multiply every tenant's allowance by the shard
//     count.
//   - A failed replica is handed off with RecoverShard, which rebuilds
//     the shard's broker from its namespace and the holder-side lease
//     handles the router kept.
type Cluster struct {
	store   *metastore.Store
	cfg     Config
	shards  []*shard
	admit   *admitter // nil without quotas and weights
	watches map[string][]RevokeWatch

	stopExpire bool
}

// shard is one broker replica plus the router-side state needed to hand
// it off: which proxies it owns and the live lease handles (adopt's
// inputs).
type shard struct {
	id      int
	b       *Broker
	down    bool
	proxies []*Proxy
	handles map[LeaseID]*Lease
}

// NewCluster creates the lease service: n broker replicas over store
// (n < 1 means one), each under its own subtree of namespace.
func NewCluster(p *sim.Proc, store *metastore.Store, n int, cfg Config) *Cluster {
	if n < 1 {
		n = 1
	}
	c := &Cluster{
		store:   store,
		cfg:     cfg,
		shards:  make([]*shard, n),
		watches: make(map[string][]RevokeWatch),
	}
	if cfg.Quotas != nil || cfg.Weights != nil {
		c.admit = newAdmitter(cfg.Quotas, cfg.Weights)
	}
	for i := range c.shards {
		sh := &shard{id: i, handles: make(map[LeaseID]*Lease)}
		sh.b = c.openShard(p, sh)
		c.shards[i] = sh
	}
	return c
}

// openShard builds a fresh broker for sh under the shard's metastore
// subtree, reporting its revocations to the router.
func (c *Cluster) openShard(p *sim.Proc, sh *shard) *Broker {
	ns := fmt.Sprintf("%s/shard%d", namespace, sh.id)
	b := newBroker(p, c.store, ns, c.cfg.LeaseTTL, sh.id, len(c.shards))
	b.onRevoke = func(l *Lease, why revokeCause) { c.revoked(sh, l, why) }
	return b
}

// revoked is every shard's revoke hook: drop the holder-side handle and
// the tenant's charge — a reclamation also counts as the tenant's shed —
// then fan out to the watches.
func (c *Cluster) revoked(sh *shard, l *Lease, why revokeCause) {
	if c.drop(sh, l) && why == causePressure && c.admit != nil {
		c.admit.tenant(l.Tenant).Sheds++
	}
	for _, fn := range c.watches[l.Holder] {
		fn(l)
	}
	if l.Holder != "" {
		for _, fn := range c.watches[""] {
			fn(l)
		}
	}
}

// drop forgets the router's handle on l and its tenant charge, reporting
// whether the router still held it.
func (c *Cluster) drop(sh *shard, l *Lease) bool {
	if _, had := sh.handles[l.ID]; !had {
		return false
	}
	delete(sh.handles, l.ID)
	c.admit.charge(l, -1)
	return true
}

// ShardCount returns the number of replicas.
func (c *Cluster) ShardCount() int { return len(c.shards) }

// Shard returns replica i's broker (tests and metrics drilling).
func (c *Cluster) Shard(i int) *Broker { return c.shards[i].b }

func (c *Cluster) shardOf(id LeaseID) *shard {
	return c.shards[int(id)%len(c.shards)]
}

// LeaseTTL returns the configured time-to-live.
func (c *Cluster) LeaseTTL() time.Duration { return c.cfg.LeaseTTL }

// AddProxy starts a brokering proxy on server, pinning mrCount regions of
// mrSize bytes each from the server's free memory, and assigns it to a
// shard by rendezvous hashing on the server name (first live shard in
// preference order). The server's memory-pressure notification reaches
// whichever broker serves that shard at the time, so local demand
// reclaims brokered memory across a handoff too.
func (c *Cluster) AddProxy(p *sim.Proc, server *cluster.Server, mrSize, mrCount int) (*Proxy, error) {
	for _, i := range rendezvousOrder(server.Name, len(c.shards)) {
		sh := c.shards[i]
		if sh.down {
			continue
		}
		pool, err := rmem.NewPool(p, server, mrSize, mrCount)
		if err != nil {
			return nil, err
		}
		px := &Proxy{Server: server, Pool: pool}
		server.OnMemoryPressure(func(need int64) { sh.b.handlePressure(px, need) })
		sh.proxies = append(sh.proxies, px)
		sh.b.proxies = append(sh.b.proxies, px)
		sh.b.refreshGauges()
		return px, nil
	}
	return nil, ErrShardDown
}

// FailProxy simulates a donor crash: all its MRs (leased or not) vanish,
// and holders observe rmem.ErrRevoked on next access.
func (c *Cluster) FailProxy(px *Proxy) {
	for _, sh := range c.shards {
		for _, own := range sh.proxies {
			if own == px {
				sh.b.failProxy(px)
				return
			}
		}
	}
}

// Request grants spec.N leases of whole MRs. Admission runs once at the
// router; placement starts at the holder's home shard (rendezvous) and
// spills to the next shards in preference order when the home shard's
// donors are exhausted. If the cluster as a whole cannot cover spec.N,
// everything granted so far is rolled back and the first shard error is
// returned — or ErrNoMemory when no shard failed.
func (c *Cluster) Request(p *sim.Proc, spec RequestSpec) ([]*Lease, error) {
	spec = spec.normalized()
	if spec.N <= 0 {
		return nil, nil
	}
	total := 0
	avail := 0
	for _, sh := range c.shards {
		if sh.down {
			continue
		}
		total += sh.b.totalMRs()
		avail += sh.b.freeFor(spec.Avoid)
	}
	if avail < spec.N {
		return nil, ErrNoMemory
	}
	if c.admit != nil {
		if err := c.admit.admit(spec.Tenant, spec.N, spec.Priority, int64(c.mrSize()), total); err != nil {
			return nil, err
		}
	}
	var out []*Lease
	var shardErr error
	for _, i := range rendezvousOrder(spec.Holder, len(c.shards)) {
		if len(out) == spec.N {
			break
		}
		sh := c.shards[i]
		if sh.down {
			continue
		}
		n := spec.N - len(out)
		if free := sh.b.freeFor(spec.Avoid); free < n {
			n = free
		}
		if n <= 0 {
			continue
		}
		sub := spec
		sub.N = n
		ls, err := sh.b.request(p, sub)
		if err != nil {
			if shardErr == nil {
				shardErr = err
			}
			continue
		}
		for _, l := range ls {
			sh.handles[l.ID] = l
			c.admit.charge(l, 1)
		}
		out = append(out, ls...)
	}
	if len(out) < spec.N {
		for _, l := range out {
			c.Release(p, l)
		}
		if shardErr != nil {
			return nil, fmt.Errorf("broker: cluster grant: %w", shardErr)
		}
		return nil, ErrNoMemory
	}
	if c.admit != nil {
		c.admit.tenant(spec.Tenant).Grants += int64(len(out))
	}
	return out, nil
}

func (c *Cluster) mrSize() int {
	for _, sh := range c.shards {
		if sz := sh.b.mrSize(); sz > 0 {
			return sz
		}
	}
	return 0
}

// Renew extends one lease by the TTL, routing by the lease's shard.
// Expired or revoked leases cannot be renewed — the holder must request
// a fresh MR.
func (c *Cluster) Renew(p *sim.Proc, l *Lease) error {
	sh := c.shardOf(l.ID)
	if sh.down {
		return ErrShardDown
	}
	return sh.b.renew(p, l)
}

// RenewAll is the batched heartbeat: the holder's cohort is grouped by
// shard and each group renews with one batched metastore round trip.
// Individually dead leases (revoked, expired, unknown) land in failed; a
// shard-level transport failure (replica down, metastore partition)
// leaves that whole group un-renewed and surfaces as a retryable error
// after every other group has been processed — re-renewing an
// already-renewed lease on the holder's retry is harmless.
func (c *Cluster) RenewAll(p *sim.Proc, holder string, ls []*Lease) (failed []*Lease, err error) {
	groups := make(map[int][]*Lease)
	for _, l := range ls {
		sid := int(l.ID) % len(c.shards)
		groups[sid] = append(groups[sid], l)
	}
	sids := make([]int, 0, len(groups))
	for sid := range groups {
		sids = append(sids, sid)
	}
	sort.Ints(sids)
	var firstErr error
	for _, sid := range sids {
		sh := c.shards[sid]
		if sh.down {
			if firstErr == nil {
				firstErr = ErrShardDown
			}
			continue
		}
		f, gerr := sh.b.renewAll(p, holder, groups[sid])
		failed = append(failed, f...)
		if gerr != nil && firstErr == nil {
			firstErr = gerr
		}
	}
	if firstErr != nil {
		return failed, fmt.Errorf("broker: cluster heartbeat: %w", firstErr)
	}
	return failed, nil
}

// Release voluntarily returns a lease; its MR goes back to the pool.
func (c *Cluster) Release(p *sim.Proc, l *Lease) {
	sh := c.shardOf(l.ID)
	c.drop(sh, l)
	if sh.down {
		// The replica can't process the release; the lease will expire
		// once the shard recovers and sweeps. Dropping the handle is
		// enough for the holder's side.
		return
	}
	sh.b.release(p, l)
}

// OnRevoke registers fn for involuntary teardowns of holder's leases
// (holder "" watches every holder). Watches are kept at the router, so
// they survive shard handoff.
func (c *Cluster) OnRevoke(holder string, fn RevokeWatch) {
	c.watches[holder] = append(c.watches[holder], fn)
}

// FailShard simulates the crash of replica i's broker process: its
// in-memory state is gone, renewals and releases routed to it fail
// retryable, and its donors stop serving new grants. The durable state
// in the shard's metastore namespace and the holder-side lease handles
// survive — RecoverShard rebuilds from them.
func (c *Cluster) FailShard(i int) { c.shards[i].down = true }

// RecoverShard hands replica i's lease space to a fresh broker rebuilt
// from the shard's metastore namespace (the election path), re-adopting
// the shard's proxies and the still-live lease handles. Holder lease
// pointers stay valid across the handoff; renewals resume on the new
// replica.
func (c *Cluster) RecoverShard(p *sim.Proc, i int) error {
	sh := c.shards[i]
	live := make(map[LeaseID]*Lease, len(sh.handles))
	now := p.Now()
	for id, l := range sh.handles {
		if l.Valid(now) {
			live[id] = l
		}
	}
	nb := c.openShard(p, sh)
	if err := nb.adopt(p, sh.proxies, live); err != nil {
		return err
	}
	// Carry the counters and metrics over so cluster aggregates stay
	// monotonic across handoffs.
	old := sh.b
	nb.Grants, nb.Renewals = old.Grants, old.Renewals
	nb.Expirations, nb.Revocations = old.Expirations, old.Revocations
	nb.GaugeActive.Peak = old.GaugeActive.Peak
	nb.GaugeFree.Peak = old.GaugeFree.Peak
	nb.HeartbeatBatch = old.HeartbeatBatch
	nb.refreshGauges()
	sh.b = nb
	sh.handles = live
	sh.down = false
	return nil
}

// ShedFair revokes up to n live leases tenant-fairly across all live
// shards (round-robin over tenants, oldest lease first within each) and
// returns how many it revoked — the reclamation-storm primitive: a
// diurnal wave of donors wanting their memory back trims every workload
// proportionally instead of collapsing whichever tenant happens to hold
// the oldest leases. Each victim counts as its tenant's shed.
func (c *Cluster) ShedFair(n int) int {
	var cands []*Lease
	for _, sh := range c.shards {
		if sh.down {
			continue
		}
		for _, l := range sh.handles {
			cands = append(cands, l)
		}
	}
	victims := victimOrder(cands)
	if n > len(victims) {
		n = len(victims)
	}
	for _, l := range victims[:n] {
		c.shardOf(l.ID).b.revoke(l.ID, causePressure)
	}
	return n
}

// Revoke forcibly revokes one lease by ID (the targeted fault-injection
// primitive), destroying its MR. It reports whether the lease existed.
func (c *Cluster) Revoke(id LeaseID) bool {
	sh := c.shardOf(id)
	if sh.down {
		return false
	}
	return sh.b.revoke(id, causeTargeted)
}

// RevokeOldest revokes the n oldest live leases cluster-wide (lowest IDs
// first) and returns how many were revoked. This is the deterministic
// revocation-storm primitive of the fault-injection harness: unlike
// memory-pressure reclamation it picks victims by ID, so a fixed seed
// reproduces the identical storm. ShedFair is the tenant-fair variant.
func (c *Cluster) RevokeOldest(n int) int {
	var ids []LeaseID
	for _, sh := range c.shards {
		if sh.down {
			continue
		}
		for id := range sh.handles {
			ids = append(ids, id)
		}
	}
	sort.Slice(ids, func(i, j int) bool { return ids[i] < ids[j] })
	revoked := 0
	for _, id := range ids {
		if revoked >= n {
			break
		}
		if c.shardOf(id).b.revoke(id, causeTargeted) {
			revoked++
		}
	}
	return revoked
}

// ExpireLoop runs as a background process, revoking on every live shard
// the leases whose holders stopped renewing, at interval. It exits when
// StopExpireLoop is called (so experiment event queues can drain).
func (c *Cluster) ExpireLoop(p *sim.Proc, interval time.Duration) {
	for !c.stopExpire {
		p.Sleep(interval)
		if c.stopExpire {
			return
		}
		now := p.Now()
		for _, sh := range c.shards {
			if !sh.down {
				sh.b.sweepExpired(now)
			}
		}
	}
}

// StopExpireLoop asks a running ExpireLoop to exit at its next tick.
func (c *Cluster) StopExpireLoop() { c.stopExpire = true }

// ReportDonorHealth replaces holder's set of reportedly slow donors, as
// piggybacked on its batched heartbeat: the broker unions the reports
// across holders and deprioritizes those donors for every holder's new
// leases, so one tenant's brownout observation protects the rest of the
// fleet. The report fans out to every live shard: proxies are
// distributed across shards, and each shard places grants independently,
// so each needs the full picture.
func (c *Cluster) ReportDonorHealth(holder string, slow []string) {
	for _, sh := range c.shards {
		if !sh.down {
			sh.b.reportDonorHealth(holder, slow)
		}
	}
}

// ActiveLeases sums live leases over live shards.
func (c *Cluster) ActiveLeases() int {
	n := 0
	for _, sh := range c.shards {
		if !sh.down {
			n += sh.b.ActiveLeases()
		}
	}
	return n
}

// FreeMRs sums unleased MRs over live shards.
func (c *Cluster) FreeMRs() int {
	n := 0
	for _, sh := range c.shards {
		if !sh.down {
			n += sh.b.FreeMRs()
		}
	}
	return n
}

// Grants, Renewals, Expirations, Revocations aggregate shard counters.
func (c *Cluster) Grants() int64      { return c.sum(func(b *Broker) int64 { return b.Grants }) }
func (c *Cluster) Renewals() int64    { return c.sum(func(b *Broker) int64 { return b.Renewals }) }
func (c *Cluster) Expirations() int64 { return c.sum(func(b *Broker) int64 { return b.Expirations }) }
func (c *Cluster) Revocations() int64 { return c.sum(func(b *Broker) int64 { return b.Revocations }) }

// HealthReports counts slow-donor reports received across all shards
// (each holder heartbeat fans its report out to every live shard).
func (c *Cluster) HealthReports() int64 {
	return c.sum(func(b *Broker) int64 { return b.HealthReports })
}

func (c *Cluster) sum(f func(*Broker) int64) int64 {
	var n int64
	for _, sh := range c.shards {
		n += f(sh.b)
	}
	return n
}

// HeartbeatBatch merges the per-shard heartbeat batch-width stats.
func (c *Cluster) HeartbeatBatch() metrics.Distribution {
	var d metrics.Distribution
	for _, sh := range c.shards {
		d.Merge(sh.b.HeartbeatBatch)
	}
	return d
}

// ActiveGauge aggregates the shards' active-lease gauges (peaks are
// summed per shard, a conservative upper bound on the cluster-wide peak).
func (c *Cluster) ActiveGauge() metrics.Gauge {
	var g metrics.Gauge
	for _, sh := range c.shards {
		sg := sh.b.GaugeActive
		g.Value += sg.Value
		g.Peak += sg.Peak
	}
	return g
}

// TenantStats returns a copy of the per-tenant accounting (empty without
// quotas or weights).
func (c *Cluster) TenantStats() map[string]TenantStats {
	out := make(map[string]TenantStats)
	if c.admit != nil {
		for name, st := range c.admit.tenants {
			out[name] = *st
		}
	}
	return out
}

// rendezvousScore ranks shard i for key: FNV-1a over the key and the
// shard index. Highest score wins (highest-random-weight hashing), so
// removing one shard only moves that shard's keys.
func rendezvousScore(key string, shard int) uint64 {
	h := fnv.New64a()
	h.Write([]byte(key))
	h.Write([]byte{byte(shard), byte(shard >> 8), byte(shard >> 16), byte(shard >> 24)})
	return h.Sum64()
}

// rendezvousOrder returns all n shards ranked by preference for key.
func rendezvousOrder(key string, n int) []int {
	order := make([]int, n)
	scores := make([]uint64, n)
	for i := 0; i < n; i++ {
		order[i] = i
		scores[i] = rendezvousScore(key, i)
	}
	// Insertion sort by descending score (n is small).
	for i := 1; i < n; i++ {
		for j := i; j > 0 && scores[order[j]] > scores[order[j-1]]; j-- {
			order[j], order[j-1] = order[j-1], order[j]
		}
	}
	return order
}
