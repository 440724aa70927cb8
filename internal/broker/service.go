// The LeaseService seam: the verbs lease consumers (core.FS and,
// through it, the buffer-pool extension and TempDB) actually use —
// request, renew (single and batched), release, and revoke-watch —
// extracted into an interface so a consumer neither knows nor cares
// whether it talks to one Broker or to a sharded Cluster of them.
package broker

import (
	"hash/fnv"
	"time"

	"remotedb/internal/sim"
)

// RequestSpec describes one lease request. It is the unit both the
// sharded router and the admission controller consume: who, how many,
// where, and the tenant identity admission decisions are made on.
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
	// in reports piggybacked on other holders' heartbeats (HealthSink).
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

// LeaseService is the brokering API consumers program against. Broker
// implements it directly; Cluster implements it by sharding the lease
// space across broker replicas.
type LeaseService interface {
	// Request grants spec.N leases of whole MRs per spec.
	Request(p *sim.Proc, spec RequestSpec) ([]*Lease, error)
	// Renew extends one lease by the TTL.
	Renew(p *sim.Proc, l *Lease) error
	// RenewAll is the batched heartbeat: it extends every still-live
	// lease of holder in one metastore round trip per shard touched and
	// returns the leases that could not be renewed because they are
	// individually dead (revoked, expired, unknown). A transport-level
	// failure (metastore partition, shard replica down) returns err with
	// NO lease renewed — the cohort lives or misses its heartbeat as one.
	RenewAll(p *sim.Proc, holder string, ls []*Lease) (failed []*Lease, err error)
	// Release voluntarily returns a lease; its MR goes back to the pool.
	Release(p *sim.Proc, l *Lease)
	// OnRevoke registers fn for involuntary teardowns of holder's leases
	// (holder "" watches every holder). Watches survive shard handoff.
	OnRevoke(holder string, fn RevokeWatch)
	// LeaseTTL returns the configured time-to-live.
	LeaseTTL() time.Duration
}

var (
	_ LeaseService = (*Broker)(nil)
	_ LeaseService = (*Cluster)(nil)
)

// HealthSink is the optional donor-health reporting extension of a
// LeaseService. Holders that score donor health (core.FS with
// HealthChecks on) piggyback their current set of slow donors on the
// batched heartbeat; the broker unions the reports across holders and
// deprioritizes those donors for *every* holder's new leases — one
// tenant's brownout observation protects the rest of the fleet. Each
// report replaces the holder's previous one, so a recovered donor drops
// out as soon as its last reporter stops naming it. Consumers discover
// the extension by type assertion, keeping LeaseService itself stable.
type HealthSink interface {
	ReportDonorHealth(holder string, slow []string)
}

var (
	_ HealthSink = (*Broker)(nil)
	_ HealthSink = (*Cluster)(nil)
)

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
