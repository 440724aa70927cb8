// Package broker implements the cluster memory broker of Section 4.2:
// servers with unused memory run a proxy that pins free memory into
// fixed-size memory regions (MRs) and registers them with the broker;
// database servers with unmet memory demand request timed, exclusive
// leases on remote MRs. Lease metadata lives in the metastore (the
// ZooKeeper stand-in), so a broker failure is survivable by electing a
// new broker that reloads the state. The broker is on the control path
// only — data moves directly between the servers over RDMA.
//
// Consumers program against the LeaseService interface (service.go).
// A single Broker is one implementation; Cluster (cluster.go) shards
// the lease space across several broker replicas for cluster scale.
package broker

import (
	"encoding/json"
	"errors"
	"fmt"
	"sort"
	"strings"
	"time"

	"remotedb/internal/broker/metastore"
	"remotedb/internal/cluster"
	"remotedb/internal/fault"
	"remotedb/internal/metrics"
	"remotedb/internal/rmem"
	"remotedb/internal/sim"
)

// Errors returned by broker operations, wrapped over the repository-wide
// fault taxonomy: exhausted memory is transient (donors come and go, so
// it is retryable), while an expired or unknown lease is gone for good
// (revoked — the holder must request a fresh MR).
var (
	ErrNoMemory     = fmt.Errorf("broker: no available remote memory (%w)", fault.ErrRetryable)
	ErrLeaseUnknown = fmt.Errorf("broker: unknown lease (%w)", fault.ErrRevoked)
	ErrLeaseExpired = fmt.Errorf("broker: lease expired (%w)", fault.ErrRevoked)
	ErrQuota        = errors.New("broker: holder exceeded its fair share")
)

// LeaseID identifies a lease. In a Cluster, IDs are strided by the shard
// count (shard i mints ShardID, ShardID+stride, ...), so an ID is unique
// cluster-wide and its shard is recoverable as id mod stride.
type LeaseID int64

// Lease grants a database server exclusive access to one MR until expiry
// (unless renewed).
type Lease struct {
	ID        LeaseID
	MR        *rmem.MR
	Holder    string // database server name
	Tenant    string // workload the grant is charged to
	ExpiresAt time.Duration
	revoked   bool
}

// Valid reports whether the lease is still usable at virtual time now.
func (l *Lease) Valid(now time.Duration) bool {
	return !l.revoked && !l.MR.Revoked() && now < l.ExpiresAt
}

// leaseMeta is the durable record kept in the metastore.
type leaseMeta struct {
	Holder    string `json:"holder"`
	Tenant    string `json:"tenant,omitempty"`
	Server    string `json:"server"`
	MRIndex   int    `json:"mr"`
	ExpiresNS int64  `json:"expires_ns"`
}

// Placement chooses how MRs for one request are spread over servers.
type Placement int

const (
	// PlacePack fills one server before moving to the next.
	PlacePack Placement = iota
	// PlaceSpread round-robins across servers with free MRs (used by the
	// multi-memory-server experiments, Figures 5 and 12b).
	PlaceSpread
)

// Proxy is the memory-brokering process on a server with spare memory.
type Proxy struct {
	Server *cluster.Server
	Pool   *rmem.Pool
	broker *Broker
	failed bool
}

// Broker tracks cluster memory availability and grants leases. It is one
// shard's worth of LeaseService; on its own it serves the whole lease
// space (ShardID 0 of 1).
type Broker struct {
	k         *sim.Kernel
	store     *metastore.Store
	leaseTTL  time.Duration
	namespace string
	shardID   int
	stride    int // total shard count; IDs advance by this
	proxies   []*Proxy
	leases    map[LeaseID]*Lease
	nextID    LeaseID
	rrIdx     int     // persistent round-robin cursor for PlaceSpread
	maxFrac   float64 // fair-share cap per holder (0 = unlimited)
	admit     *admitter
	watches   map[string][]RevokeWatch // holder -> watches; "" watches all

	stopExpire bool

	// health records which holders currently report each donor as slow
	// (donor -> set of reporting holders). A donor with any reporter is
	// soft-avoided in placement exactly as if every requester had named
	// it in RequestSpec.SoftAvoid.
	health map[string]map[string]bool

	Grants, Renewals, Expirations, Revocations int64
	HealthReports                              int64

	// GaugeActive / GaugeFree track live leases and unleased MRs with
	// peaks; HeartbeatBatch records how many leases each batched renewal
	// covered. rmbench reads these for its -json output.
	GaugeActive    metrics.Gauge
	GaugeFree      metrics.Gauge
	HeartbeatBatch metrics.Distribution
}

// Config parameterizes the broker.
type Config struct {
	LeaseTTL time.Duration

	// MaxFractionPerHolder caps one database server's share of the
	// cluster's brokered MRs (0 disables). This is the "fairness across
	// multiple workloads" brokering policy the paper lists as future
	// work in Section 7.
	MaxFractionPerHolder float64

	// Namespace is the metastore subtree this broker owns (default
	// "/broker"). Cluster gives each shard its own subtree.
	Namespace string

	// ShardID/ShardCount stride lease IDs so shards mint disjoint IDs.
	// Zero values mean a standalone broker (shard 0 of 1).
	ShardID    int
	ShardCount int

	// Quotas caps each tenant's leased bytes (hard limit). Weights give
	// tenants max-min shares enforced while donors are scarce — when a
	// grant would eat into the last ScarceFrac of the pool (default
	// 0.25). Leave Weights nil to disable fairness.
	Quotas     map[string]int64
	Weights    map[string]float64
	ScarceFrac float64
}

// DefaultConfig uses a 10 s lease TTL and no fairness cap.
func DefaultConfig() Config { return Config{LeaseTTL: 10 * time.Second} }

// New creates a broker backed by store. p is the bootstrapping process.
func New(p *sim.Proc, store *metastore.Store, cfg Config) *Broker {
	ns := cfg.Namespace
	if ns == "" {
		ns = "/broker"
	}
	stride := cfg.ShardCount
	if stride < 1 {
		stride = 1
	}
	b := &Broker{
		k:         p.Kernel(),
		store:     store,
		leaseTTL:  cfg.LeaseTTL,
		namespace: ns,
		shardID:   cfg.ShardID,
		stride:    stride,
		nextID:    LeaseID(cfg.ShardID),
		maxFrac:   cfg.MaxFractionPerHolder,
		leases:    make(map[LeaseID]*Lease),
		watches:   make(map[string][]RevokeWatch),
		health:    make(map[string]map[string]bool),
	}
	if cfg.Quotas != nil || cfg.Weights != nil {
		b.admit = newAdmitter(cfg.Quotas, cfg.Weights, cfg.ScarceFrac)
	}
	ensurePath(p, store, ns+"/leases")
	return b
}

// ensurePath creates every missing ancestor of path (namespaces nest,
// e.g. /broker/shard3/leases).
func ensurePath(p *sim.Proc, store *metastore.Store, path string) {
	segs := strings.Split(strings.TrimPrefix(path, "/"), "/")
	cur := ""
	for _, seg := range segs {
		cur += "/" + seg
		if !store.Exists(p, cur) {
			store.Create(p, cur, nil, 0)
		}
	}
}

// LeaseTTL returns the configured time-to-live.
func (b *Broker) LeaseTTL() time.Duration { return b.leaseTTL }

// ShardID returns which shard of the lease space this broker serves.
func (b *Broker) ShardID() int { return b.shardID }

// AddProxy starts a brokering proxy on server, pinning mrCount regions of
// mrSize bytes each from the server's free memory, and wires up the
// memory-pressure notification so local demand reclaims brokered memory.
func (b *Broker) AddProxy(p *sim.Proc, server *cluster.Server, mrSize, mrCount int) (*Proxy, error) {
	pool, err := rmem.NewPool(p, server, mrSize, mrCount)
	if err != nil {
		return nil, err
	}
	px := &Proxy{Server: server, Pool: pool, broker: b}
	server.OnMemoryPressure(func(need int64) {
		b.handlePressure(px, need)
	})
	b.proxies = append(b.proxies, px)
	b.refreshGauges()
	return px, nil
}

// handlePressure releases brokered memory on px's server: free MRs first,
// then revoking live leases until the shortfall is covered. Victims are
// picked tenant-fairly, oldest lease first within each tenant, so one
// workload's pressure never lands on a single other workload.
func (b *Broker) handlePressure(px *Proxy, need int64) {
	released := px.Pool.Shrink(need)
	if released >= need {
		return
	}
	var cands []*Lease
	for _, l := range b.leases {
		if l.MR.Owner == px.Server && !l.revoked {
			cands = append(cands, l)
		}
	}
	for _, l := range victimOrder(cands) {
		if released >= need {
			break
		}
		size := int64(l.MR.Size())
		b.shed(l.ID)
		released += size
	}
}

// victimOrder sorts candidate leases for shedding: round-robin over
// tenants in sorted-name order, oldest lease (lowest ID) first within
// each tenant. Deterministic by construction.
func victimOrder(cands []*Lease) []*Lease {
	byTenant := make(map[string][]*Lease)
	for _, l := range cands {
		byTenant[l.Tenant] = append(byTenant[l.Tenant], l)
	}
	names := make([]string, 0, len(byTenant))
	for name, ls := range byTenant {
		sort.Slice(ls, func(i, j int) bool { return ls[i].ID < ls[j].ID })
		names = append(names, name)
	}
	sort.Strings(names)
	out := make([]*Lease, 0, len(cands))
	for len(out) < len(cands) {
		for _, name := range names {
			if ls := byTenant[name]; len(ls) > 0 {
				out = append(out, ls[0])
				byTenant[name] = ls[1:]
			}
		}
	}
	return out
}

// shed revokes one lease charging the teardown to its tenant's shed
// counter (reclamation, not expiry).
func (b *Broker) shed(id LeaseID) {
	if l, ok := b.leases[id]; ok && b.admit != nil {
		b.admit.tenant(l.Tenant).Sheds++
	}
	b.revoke(id)
}

// ShedFair revokes up to n live leases tenant-fairly (round-robin over
// tenants, oldest first within each) and returns how many it revoked.
// This is the reclamation-storm primitive: a diurnal wave of donors
// wanting their memory back trims every workload proportionally instead
// of collapsing whichever tenant happens to hold the oldest leases.
func (b *Broker) ShedFair(n int) int {
	cands := make([]*Lease, 0, len(b.leases))
	for _, l := range b.leases {
		cands = append(cands, l)
	}
	victims := victimOrder(cands)
	if n > len(victims) {
		n = len(victims)
	}
	for _, l := range victims[:n] {
		b.shed(l.ID)
	}
	return n
}

// revoke tears down a lease and reclaims its MR's memory.
func (b *Broker) revoke(id LeaseID) {
	l, ok := b.leases[id]
	if !ok {
		return
	}
	l.revoked = true
	b.Revocations++
	delete(b.leases, id)
	b.accountRelease(l)
	// Reclaim: drop the MR entirely (memory goes back to the OS).
	for _, px := range b.proxies {
		if px.Server == l.MR.Owner {
			px.Pool.ReleaseMR(l.MR)
			px.Pool.Shrink(int64(l.MR.Size()))
			break
		}
	}
	b.refreshGauges()
	b.notifyRevoke(l)
}

// OnRevoke registers fn for involuntary teardowns of holder's leases
// (expiry, pressure, proxy failure, targeted revocation). holder ""
// watches every holder. Part of LeaseService.
func (b *Broker) OnRevoke(holder string, fn RevokeWatch) {
	b.watches[holder] = append(b.watches[holder], fn)
}

func (b *Broker) notifyRevoke(l *Lease) {
	for _, fn := range b.watches[l.Holder] {
		fn(l)
	}
	if l.Holder != "" {
		for _, fn := range b.watches[""] {
			fn(l)
		}
	}
}

// Request grants spec.N leases of whole MRs per spec. All MRs in one
// grant have the pool's fixed size.
func (b *Broker) Request(p *sim.Proc, spec RequestSpec) ([]*Lease, error) {
	spec = spec.normalized()
	if spec.N <= 0 {
		return nil, nil
	}
	avail := 0
	total := 0
	for _, px := range b.proxies {
		if !px.failed {
			total += px.Pool.TotalCount()
			if !spec.Avoid[px.Server.Name] {
				avail += px.Pool.FreeCount()
			}
		}
	}
	if avail < spec.N {
		return nil, ErrNoMemory
	}
	if b.maxFrac > 0 {
		held := 0
		for _, l := range b.leases {
			if l.Holder == spec.Holder {
				held++
			}
		}
		if float64(held+spec.N) > b.maxFrac*float64(total) {
			return nil, ErrQuota
		}
	}
	if b.admit != nil {
		held := make(map[string]int64)
		for _, l := range b.leases {
			held[l.Tenant]++
		}
		if err := b.admit.admit(spec.Tenant, spec.N, spec.Priority, int64(b.MRSize()), total, held); err != nil {
			return nil, err
		}
	}
	deprio := func(name string) bool {
		return spec.SoftAvoid[name] || len(b.health[name]) > 0
	}
	var out []*Lease
	for len(out) < spec.N {
		var px *Proxy
		// Two passes: the first skips soft-avoided (browned-out) donors,
		// the second admits them — deprioritize, never fail, so under
		// scarcity a slow donor still serves.
		for pass := 0; pass < 2 && px == nil; pass++ {
			switch spec.Place {
			case PlaceSpread:
				// Round-robin over proxies with free MRs.
				for tries := 0; tries < len(b.proxies); tries++ {
					cand := b.proxies[b.rrIdx%len(b.proxies)]
					b.rrIdx++
					if cand.failed || spec.Avoid[cand.Server.Name] || cand.Pool.FreeCount() == 0 {
						continue
					}
					if pass == 0 && deprio(cand.Server.Name) {
						continue
					}
					px = cand
					break
				}
			default:
				for _, cand := range b.proxies {
					if cand.failed || spec.Avoid[cand.Server.Name] || cand.Pool.FreeCount() == 0 {
						continue
					}
					if pass == 0 && deprio(cand.Server.Name) {
						continue
					}
					px = cand
					break
				}
			}
		}
		if px == nil {
			// Races cannot happen (single-threaded sim), but keep the
			// invariant honest.
			return nil, ErrNoMemory
		}
		mr, err := px.Pool.Acquire()
		if err != nil {
			return nil, err
		}
		b.nextID += LeaseID(b.stride)
		l := &Lease{
			ID:        b.nextID,
			MR:        mr,
			Holder:    spec.Holder,
			Tenant:    spec.Tenant,
			ExpiresAt: p.Now() + b.leaseTTL,
		}
		if err := b.persist(p, l); err != nil {
			// The grant cannot be made durable (metastore partitioned):
			// roll the MR back and surface the transient failure.
			px.Pool.ReleaseMR(mr)
			for _, granted := range out {
				b.Release(p, granted)
			}
			return nil, fmt.Errorf("broker: persist grant: %w", err)
		}
		b.leases[l.ID] = l
		b.Grants++
		b.accountGrant(l)
		out = append(out, l)
	}
	b.refreshGauges()
	return out, nil
}

func (b *Broker) leasePath(id LeaseID) string {
	return fmt.Sprintf("%s/leases/%d", b.namespace, id)
}

func (b *Broker) marshalMeta(l *Lease) []byte {
	meta, _ := json.Marshal(leaseMeta{
		Holder:    l.Holder,
		Tenant:    l.Tenant,
		Server:    l.MR.Owner.Name,
		MRIndex:   l.MR.ID.Index,
		ExpiresNS: int64(l.ExpiresAt),
	})
	return meta
}

func (b *Broker) persist(p *sim.Proc, l *Lease) error {
	path := b.leasePath(l.ID)
	if b.store.Exists(p, path) {
		_, err := b.store.Set(p, path, b.marshalMeta(l), -1)
		return err
	}
	return b.store.Create(p, path, b.marshalMeta(l), 0)
}

// Renew extends a lease by the TTL. Expired or revoked leases cannot be
// renewed — the holder must request a fresh MR. A metastore failure
// leaves the expiry unchanged and surfaces as a retryable error.
func (b *Broker) Renew(p *sim.Proc, l *Lease) error {
	cur, ok := b.leases[l.ID]
	if !ok || cur != l {
		return ErrLeaseUnknown
	}
	if !l.Valid(p.Now()) {
		return ErrLeaseExpired
	}
	prev := l.ExpiresAt
	l.ExpiresAt = p.Now() + b.leaseTTL
	if err := b.persist(p, l); err != nil {
		l.ExpiresAt = prev
		return fmt.Errorf("broker: persist renewal: %w", err)
	}
	b.Renewals++
	return nil
}

// RenewAll is the batched heartbeat (LeaseService): every still-live
// lease in ls is renewed with ONE metastore round trip. Individually
// dead leases (revoked, expired, unknown, or missing from the store)
// come back in failed and do not poison the rest of the batch. A
// transport failure (metastore partition) renews nothing and returns a
// retryable error — the holder's whole cohort missed this heartbeat
// together and will expire together if the outage outlives the TTL.
func (b *Broker) RenewAll(p *sim.Proc, holder string, ls []*Lease) (failed []*Lease, err error) {
	now := p.Now()
	var live []*Lease
	for _, l := range ls {
		cur, ok := b.leases[l.ID]
		if !ok || cur != l || !l.Valid(now) || l.Holder != holder {
			failed = append(failed, l)
			continue
		}
		live = append(live, l)
	}
	if len(live) == 0 {
		return failed, nil
	}
	newExp := now + b.leaseTTL
	items := make([]metastore.BatchSet, len(live))
	for i, l := range live {
		stamped := *l
		stamped.ExpiresAt = newExp
		items[i] = metastore.BatchSet{Path: b.leasePath(l.ID), Data: b.marshalMeta(&stamped)}
	}
	missing, err := b.store.SetBatch(p, items)
	if err != nil {
		// Nothing was renewed; expiries are unchanged.
		return failed, fmt.Errorf("broker: heartbeat batch: %w", err)
	}
	miss := make(map[int]bool, len(missing))
	for _, i := range missing {
		miss[i] = true
	}
	for i, l := range live {
		if miss[i] {
			failed = append(failed, l)
			continue
		}
		l.ExpiresAt = newExp
		b.Renewals++
	}
	b.HeartbeatBatch.Observe(int64(len(live)))
	return failed, nil
}

// Release voluntarily gives a lease back; its MR returns to the free pool.
func (b *Broker) Release(p *sim.Proc, l *Lease) {
	cur, ok := b.leases[l.ID]
	if !ok || cur != l {
		return
	}
	delete(b.leases, l.ID)
	b.store.Delete(p, b.leasePath(l.ID), -1)
	l.revoked = true
	b.accountRelease(l)
	for _, px := range b.proxies {
		if px.Server == l.MR.Owner {
			px.Pool.ReleaseMR(l.MR)
			break
		}
	}
	b.refreshGauges()
}

// SweepExpired revokes every lease whose expiry has passed at virtual
// time now and returns how many it revoked. Sweeps in sorted lease order
// so the simulation stays deterministic (map iteration order is not).
func (b *Broker) SweepExpired(now time.Duration) int {
	var ids []LeaseID
	for id, l := range b.leases {
		if now >= l.ExpiresAt {
			ids = append(ids, id)
		}
	}
	sort.Slice(ids, func(i, j int) bool { return ids[i] < ids[j] })
	for _, id := range ids {
		b.Expirations++
		b.revoke(id)
	}
	return len(ids)
}

// ExpireLoop runs as a background process, revoking leases whose holders
// stopped renewing. Interval controls the sweep cadence. It exits when
// StopExpireLoop is called (so experiment event queues can drain).
func (b *Broker) ExpireLoop(p *sim.Proc, interval time.Duration) {
	for !b.stopExpire {
		p.Sleep(interval)
		if b.stopExpire {
			return
		}
		b.SweepExpired(p.Now())
	}
}

// StopExpireLoop asks a running ExpireLoop to exit at its next tick.
func (b *Broker) StopExpireLoop() { b.stopExpire = true }

// FailProxy simulates a crash of a memory server: all its MRs (leased or
// not) vanish. Holders observe rmem.ErrRevoked on next access.
func (b *Broker) FailProxy(px *Proxy) {
	px.failed = true
	px.Pool.RevokeAll()
	var ids []LeaseID
	for id, l := range b.leases {
		if l.MR.Owner == px.Server {
			ids = append(ids, id)
		}
	}
	sort.Slice(ids, func(i, j int) bool { return ids[i] < ids[j] })
	for _, id := range ids {
		l := b.leases[id]
		l.revoked = true
		delete(b.leases, id)
		b.Revocations++
		b.accountRelease(l)
		b.notifyRevoke(l)
	}
	b.refreshGauges()
}

// Revoke forcibly revokes one lease by ID (the targeted fault-injection
// primitive), destroying its MR. It reports whether the lease existed.
func (b *Broker) Revoke(id LeaseID) bool {
	if _, ok := b.leases[id]; !ok {
		return false
	}
	b.revoke(id)
	return true
}

// RevokeOldest revokes the n oldest live leases (lowest IDs first) and
// returns how many were actually revoked. This is the deterministic
// revocation-storm primitive used by the fault-injection harness: unlike
// memory-pressure reclamation it picks victims by ID, so a fixed seed
// reproduces the identical storm. ShedFair is the tenant-fair variant.
func (b *Broker) RevokeOldest(n int) int {
	ids := make([]LeaseID, 0, len(b.leases))
	for id := range b.leases {
		ids = append(ids, id)
	}
	sort.Slice(ids, func(i, j int) bool { return ids[i] < ids[j] })
	revoked := 0
	for _, id := range ids {
		if revoked >= n {
			break
		}
		b.revoke(id)
		revoked++
	}
	return revoked
}

// ReportDonorHealth replaces holder's set of reportedly slow donors
// (piggybacked on its batched heartbeat). Donors named by at least one
// holder are deprioritized for everyone's new leases until their last
// reporter withdraws. Unknown donor names are stored harmlessly: the
// placement loop only consults the map for proxies it actually has.
func (b *Broker) ReportDonorHealth(holder string, slow []string) {
	b.HealthReports++
	for donor, reporters := range b.health {
		if reporters[holder] {
			delete(reporters, holder)
			if len(reporters) == 0 {
				delete(b.health, donor)
			}
		}
	}
	for _, donor := range slow {
		if b.health[donor] == nil {
			b.health[donor] = make(map[string]bool)
		}
		b.health[donor][holder] = true
	}
}

// DeprioritizedDonors returns the donors currently reported slow by at
// least one holder (placement soft-avoids them), sorted.
func (b *Broker) DeprioritizedDonors() []string {
	out := make([]string, 0, len(b.health))
	for donor := range b.health {
		out = append(out, donor)
	}
	sort.Strings(out)
	return out
}

// ActiveLeases returns the number of live leases.
func (b *Broker) ActiveLeases() int { return len(b.leases) }

// FreeMRs returns cluster-wide unleased MRs.
func (b *Broker) FreeMRs() int { return b.FreeFor(nil) }

// FreeFor returns unleased MRs on live donors outside avoid — the count
// the Cluster router uses to decide whether a shard can satisfy a spec.
func (b *Broker) FreeFor(avoid map[string]bool) int {
	total := 0
	for _, px := range b.proxies {
		if !px.failed && !avoid[px.Server.Name] {
			total += px.Pool.FreeCount()
		}
	}
	return total
}

// TotalMRs returns all MRs (leased or free) on live donors.
func (b *Broker) TotalMRs() int {
	total := 0
	for _, px := range b.proxies {
		if !px.failed {
			total += px.Pool.TotalCount()
		}
	}
	return total
}

// MRSize returns the MR granularity (bytes) of the first live pool, or 0
// with no proxies.
func (b *Broker) MRSize() int {
	for _, px := range b.proxies {
		if !px.failed {
			return px.Pool.MRSize()
		}
	}
	return 0
}

// TenantStats returns a copy of the per-tenant accounting (nil when no
// quotas/weights were configured and no tenants were tracked).
func (b *Broker) TenantStats() map[string]TenantStats {
	if b.admit == nil {
		return nil
	}
	out := make(map[string]TenantStats, len(b.admit.tenants))
	for name, st := range b.admit.tenants {
		out[name] = *st
	}
	return out
}

func (b *Broker) accountGrant(l *Lease) {
	if b.admit == nil {
		return
	}
	b.admit.tenant(l.Tenant).Grants++
	b.accountHeld(l)
}

func (b *Broker) accountHeld(l *Lease) {
	if b.admit == nil {
		return
	}
	st := b.admit.tenant(l.Tenant)
	st.HeldMRs++
	st.HeldBytes += int64(l.MR.Size())
}

func (b *Broker) accountRelease(l *Lease) {
	if b.admit == nil {
		return
	}
	st := b.admit.tenant(l.Tenant)
	st.HeldMRs--
	st.HeldBytes -= int64(l.MR.Size())
}

func (b *Broker) refreshGauges() {
	b.GaugeActive.Set(int64(len(b.leases)))
	b.GaugeFree.Set(int64(b.FreeMRs()))
}

// Recover builds a replacement broker from the metastore after the old
// broker failed, re-adopting the given proxies and their outstanding
// leases. Leases whose metadata refers to unknown proxies are dropped.
// It returns the recovered lease objects keyed by the old IDs so holders
// can be re-pointed. cfg.Namespace must match the failed broker's (a
// Cluster passes each shard's own subtree).
func Recover(p *sim.Proc, store *metastore.Store, cfg Config, proxies []*Proxy, live map[LeaseID]*Lease) (*Broker, error) {
	b := New(p, store, cfg)
	for _, px := range proxies {
		px.broker = b
		b.proxies = append(b.proxies, px)
	}
	names, err := store.Children(p, b.namespace+"/leases")
	if err != nil {
		return nil, err
	}
	for _, name := range names {
		var id LeaseID
		fmt.Sscanf(name, "%d", &id)
		path := b.namespace + "/leases/" + name
		data, _, err := store.Get(p, path)
		if err != nil {
			continue
		}
		var meta leaseMeta
		if err := json.Unmarshal(data, &meta); err != nil {
			continue
		}
		l, ok := live[id]
		if !ok || l.MR.Owner.Name != meta.Server {
			store.Delete(p, path, -1)
			continue
		}
		l.ExpiresAt = time.Duration(meta.ExpiresNS)
		if l.Tenant == "" {
			l.Tenant = meta.Tenant
		}
		b.leases[id] = l
		b.accountHeld(l)
		if id > b.nextID {
			b.nextID = id
		}
	}
	b.refreshGauges()
	return b, nil
}
