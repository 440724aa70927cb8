// Package broker implements the cluster memory broker of Section 4.2:
// servers with unused memory run a proxy that pins free memory into
// fixed-size memory regions (MRs) and registers them with the broker;
// database servers with unmet memory demand request timed, exclusive
// leases on remote MRs. Lease metadata lives in the metastore (the
// ZooKeeper stand-in), so a broker failure is survivable by electing a
// new broker that reloads the state. The broker is on the control path
// only — data moves directly between the servers over RDMA.
//
// Cluster (cluster.go), built by NewCluster, is the lease service. It
// admits every request once — the per-holder cap, tenant quotas and
// fairness — and routes it over one or more Broker shards; a shard
// places grants on its own donors and persists them under its own
// metastore subtree. A one-shard Cluster is the paper's single broker.
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

// LeaseID identifies a lease. IDs are strided by the shard count (shard
// i mints i, i+stride, ...), so an ID is unique cluster-wide and its
// shard is recoverable as id mod stride.
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
	failed bool
}

// revokeCause says why a shard tore a lease down.
type revokeCause int

const (
	causeExpiry       revokeCause = iota // the holder stopped renewing
	causePressure                        // the donor reclaimed its memory
	causeProxyFailure                    // the donor crashed
	causeTargeted                        // Cluster.Revoke or RevokeOldest
)

// Broker is one shard of a Cluster: it places grants on its donors,
// persists them under its metastore subtree, renews and expires them,
// and reports every involuntary teardown to the router. Only the Cluster
// calls its verbs; Cluster.Shard exposes it for metrics drilling.
type Broker struct {
	store     *metastore.Store
	leaseTTL  time.Duration
	namespace string
	stride    int // shard count; IDs advance by this
	proxies   []*Proxy
	leases    map[LeaseID]*Lease
	nextID    LeaseID
	rrIdx     int // persistent round-robin cursor for PlaceSpread

	// onRevoke is the router's hook, run for every teardown but the
	// holder's own release.
	onRevoke func(l *Lease, why revokeCause)

	// health records which holders currently report each donor as slow
	// (donor -> set of reporting holders). A donor with any reporter is
	// soft-avoided in placement exactly as if every requester had named
	// it in RequestSpec.SoftAvoid.
	health map[string]map[string]bool

	Grants, Renewals, Expirations, Revocations int64
	HealthReports                              int64

	// GaugeActive / GaugeFree track live leases and unleased MRs with
	// peaks; HeartbeatBatch records how many leases each batched renewal
	// covered. The cluster experiment reports them among its metrics.
	GaugeActive    metrics.Gauge
	GaugeFree      metrics.Gauge
	HeartbeatBatch metrics.Distribution
}

// newBroker creates shard id of stride, owning the metastore subtree ns.
// p is the bootstrapping process.
func newBroker(p *sim.Proc, store *metastore.Store, ns string, ttl time.Duration, id, stride int) *Broker {
	b := &Broker{
		store:     store,
		leaseTTL:  ttl,
		namespace: ns,
		stride:    stride,
		nextID:    LeaseID(id),
		leases:    make(map[LeaseID]*Lease),
		health:    make(map[string]map[string]bool),
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
		b.revoke(l.ID, causePressure)
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

// revoke tears down a live lease, reclaims its MR's memory and reports
// the teardown to the router. It reports whether the lease was live.
func (b *Broker) revoke(id LeaseID, why revokeCause) bool {
	l, ok := b.leases[id]
	if !ok {
		return false
	}
	l.revoked = true
	b.Revocations++
	delete(b.leases, id)
	// Reclaim: drop the MR entirely (memory goes back to the OS).
	for _, px := range b.proxies {
		if px.Server == l.MR.Owner {
			px.Pool.ReleaseMR(l.MR)
			px.Pool.Shrink(int64(l.MR.Size()))
			break
		}
	}
	b.refreshGauges()
	b.onRevoke(l, why)
	return true
}

// request places spec.N grants on this shard's donors; the router has
// admitted spec and checked that the shard's free MRs cover it. All MRs
// have the pool's fixed size. On failure nothing stays granted.
func (b *Broker) request(p *sim.Proc, spec RequestSpec) ([]*Lease, error) {
	deprio := func(name string) bool {
		return spec.SoftAvoid[name] || len(b.health[name]) > 0
	}
	var out []*Lease
	fail := func(err error) ([]*Lease, error) {
		for _, granted := range out {
			b.release(p, granted)
		}
		return nil, err
	}
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
			// The router's free count rules this out (single-threaded
			// sim), but keep the invariant honest.
			return fail(ErrNoMemory)
		}
		mr, err := px.Pool.Acquire()
		if err != nil {
			return fail(err)
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
			return fail(fmt.Errorf("broker: persist grant: %w", err))
		}
		b.leases[l.ID] = l
		b.Grants++
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

// renew extends a lease by the TTL. Expired or revoked leases cannot be
// renewed — the holder must request a fresh MR. A metastore failure
// leaves the expiry unchanged and surfaces as a retryable error.
func (b *Broker) renew(p *sim.Proc, l *Lease) error {
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

// renewAll is the batched heartbeat: every still-live lease in ls is
// renewed with ONE metastore round trip. Individually dead leases
// (revoked, expired, unknown, or missing from the store) come back in
// failed and do not poison the rest of the batch. A transport failure
// (metastore partition) renews nothing and returns a retryable error —
// the holder's whole cohort missed this heartbeat together and will
// expire together if the outage outlives the TTL.
func (b *Broker) renewAll(p *sim.Proc, holder string, ls []*Lease) (failed []*Lease, err error) {
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

// release voluntarily gives a lease back; its MR returns to the free pool.
func (b *Broker) release(p *sim.Proc, l *Lease) {
	cur, ok := b.leases[l.ID]
	if !ok || cur != l {
		return
	}
	delete(b.leases, l.ID)
	b.store.Delete(p, b.leasePath(l.ID), -1)
	l.revoked = true
	for _, px := range b.proxies {
		if px.Server == l.MR.Owner {
			px.Pool.ReleaseMR(l.MR)
			break
		}
	}
	b.refreshGauges()
}

// sortedIDs returns the IDs of the leases match accepts in ascending
// order, so teardown sweeps stay deterministic (map order is not).
func (b *Broker) sortedIDs(match func(*Lease) bool) []LeaseID {
	var ids []LeaseID
	for id, l := range b.leases {
		if match(l) {
			ids = append(ids, id)
		}
	}
	sort.Slice(ids, func(i, j int) bool { return ids[i] < ids[j] })
	return ids
}

// sweepExpired revokes every lease whose expiry has passed at virtual
// time now.
func (b *Broker) sweepExpired(now time.Duration) {
	for _, id := range b.sortedIDs(func(l *Lease) bool { return now >= l.ExpiresAt }) {
		b.Expirations++
		b.revoke(id, causeExpiry)
	}
}

// failProxy simulates a crash of a memory server: all its MRs (leased or
// not) vanish. Holders observe rmem.ErrRevoked on next access.
func (b *Broker) failProxy(px *Proxy) {
	px.failed = true
	px.Pool.RevokeAll()
	for _, id := range b.sortedIDs(func(l *Lease) bool { return l.MR.Owner == px.Server }) {
		b.revoke(id, causeProxyFailure)
	}
	b.refreshGauges()
}

// reportDonorHealth replaces holder's set of reportedly slow donors
// (piggybacked on its batched heartbeat). Donors named by at least one
// holder are deprioritized for everyone's new leases until their last
// reporter withdraws. Unknown donor names are stored harmlessly: the
// placement loop only consults the map for proxies it actually has.
func (b *Broker) reportDonorHealth(holder string, slow []string) {
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

// FreeMRs returns the shard's unleased MRs.
func (b *Broker) FreeMRs() int { return b.freeFor(nil) }

// freeFor returns unleased MRs on live donors outside avoid — the count
// the router uses to decide whether the shard can satisfy a spec.
func (b *Broker) freeFor(avoid map[string]bool) int {
	total := 0
	for _, px := range b.proxies {
		if !px.failed && !avoid[px.Server.Name] {
			total += px.Pool.FreeCount()
		}
	}
	return total
}

// totalMRs returns all MRs (leased or free) on live donors.
func (b *Broker) totalMRs() int {
	total := 0
	for _, px := range b.proxies {
		if !px.failed {
			total += px.Pool.TotalCount()
		}
	}
	return total
}

// mrSize returns the MR granularity (bytes) of the first live pool, or 0
// with no proxies.
func (b *Broker) mrSize() int {
	for _, px := range b.proxies {
		if !px.failed {
			return px.Pool.MRSize()
		}
	}
	return 0
}

func (b *Broker) refreshGauges() {
	b.GaugeActive.Set(int64(len(b.leases)))
	b.GaugeFree.Set(int64(b.FreeMRs()))
}

// adopt rebuilds a replacement shard from the metastore after the old
// broker failed: it takes over the old shard's proxies and every lease
// whose record the metastore still holds and whose holder still holds it
// (live, keyed by ID); the records of the rest are deleted.
func (b *Broker) adopt(p *sim.Proc, proxies []*Proxy, live map[LeaseID]*Lease) error {
	b.proxies = append(b.proxies, proxies...)
	names, err := b.store.Children(p, b.namespace+"/leases")
	if err != nil {
		return err
	}
	for _, name := range names {
		var id LeaseID
		fmt.Sscanf(name, "%d", &id)
		path := b.namespace + "/leases/" + name
		data, _, err := b.store.Get(p, path)
		if err != nil {
			continue
		}
		var meta leaseMeta
		if err := json.Unmarshal(data, &meta); err != nil {
			continue
		}
		l, ok := live[id]
		if !ok || l.MR.Owner.Name != meta.Server {
			b.store.Delete(p, path, -1)
			continue
		}
		l.ExpiresAt = time.Duration(meta.ExpiresNS)
		if l.Tenant == "" {
			l.Tenant = meta.Tenant
		}
		b.leases[id] = l
		if id > b.nextID {
			b.nextID = id
		}
	}
	b.refreshGauges()
	return nil
}
