package broker

import (
	"fmt"
	"sort"

	"remotedb/internal/fault"
)

// ErrTenantQuota rejects a request that would push a tenant past its hard
// byte quota. Unlike scarcity-mode fairness denials it is not retryable:
// the quota will not grow on its own.
var ErrTenantQuota = fmt.Errorf("broker: tenant over quota (%w)", ErrQuota)

// ErrScarce rejects a request that would exceed the tenant's weighted
// max-min share while donors are scarce. It wraps fault.ErrRetryable
// because the condition clears when other tenants release or the pool
// grows.
var ErrScarce = fmt.Errorf("broker: donors scarce, over fair share (%w)", fault.ErrRetryable)

// TenantStats is the per-tenant accounting the admission controller and
// the shedding policy maintain, exported so the cluster experiment can
// report it.
type TenantStats struct {
	Grants    int64 // MRs granted
	Denies    int64 // requests rejected (quota or fairness)
	Sheds     int64 // leases revoked by storm shedding / pressure
	HeldMRs   int64 // MRs currently leased
	HeldBytes int64 // bytes currently leased
}

// admitter is the Cluster router's quota + fairness policy and its
// per-tenant accounting.
type admitter struct {
	quotas  map[string]int64   // hard byte cap per tenant (absent = unlimited)
	weights map[string]float64 // max-min weight per tenant (absent = 1)
	tenants map[string]*TenantStats
}

// scarceFrac is the headroom fraction of the pool whose use triggers
// weighted fairness: donors count as scarce once a grant would eat into
// the last quarter of the pool.
const scarceFrac = 0.25

func newAdmitter(quotas map[string]int64, weights map[string]float64) *admitter {
	return &admitter{
		quotas:  quotas,
		weights: weights,
		tenants: make(map[string]*TenantStats),
	}
}

func (a *admitter) tenant(name string) *TenantStats {
	t := a.tenants[name]
	if t == nil {
		t = &TenantStats{}
		a.tenants[name] = t
	}
	return t
}

// charge moves n MRs of l's size onto l's tenant (n < 0 takes them
// off). A nil admitter keeps no accounting.
func (a *admitter) charge(l *Lease, n int64) {
	if a == nil {
		return
	}
	st := a.tenant(l.Tenant)
	st.HeldMRs += n
	st.HeldBytes += n * int64(l.MR.Size())
}

func (a *admitter) weight(name string) float64 {
	if w, ok := a.weights[name]; ok && w > 0 {
		return w
	}
	return 1
}

// admit decides whether tenant may grow by n MRs of mrSize bytes given
// total MRs in the pool and every tenant's current holdings.
//
// Two gates, in order:
//  1. Hard byte quota — always enforced when configured.
//  2. Weighted max-min fairness — enforced only while donors are scarce,
//     i.e. the grant would eat into the last scarceFrac of the pool.
//     Capacity minus that headroom is water-filled across the tenants
//     that currently hold memory (demand = holdings; the requester's
//     demand includes the new MRs); the request is denied if the
//     requester's max-min share cannot cover it. Priority raises the
//     requester's effective weight so urgent work wins ties.
func (a *admitter) admit(tenant string, n, priority int, mrSize int64, total int) error {
	st := a.tenant(tenant)
	if q, ok := a.quotas[tenant]; ok && q > 0 {
		if st.HeldBytes+int64(n)*mrSize > q {
			st.Denies++
			return ErrTenantQuota
		}
	}
	if len(a.weights) > 0 && total > 0 {
		var heldTotal int64
		for _, t := range a.tenants {
			heldTotal += t.HeldMRs
		}
		headroom := scarceFrac * float64(total)
		if float64(heldTotal+int64(n)) > float64(total)-headroom {
			capacity := float64(total) - headroom
			demands := make(map[string]float64, len(a.tenants))
			weights := make(map[string]float64, len(a.tenants))
			for name, t := range a.tenants {
				if t.HeldMRs > 0 {
					demands[name] = float64(t.HeldMRs)
					weights[name] = a.weight(name)
				}
			}
			demands[tenant] = float64(st.HeldMRs + int64(n))
			weights[tenant] = a.weight(tenant) * float64(1+priority)
			alloc := maxMinAlloc(capacity, demands, weights)
			if alloc[tenant]+1e-9 < demands[tenant] {
				st.Denies++
				return ErrScarce
			}
		}
	}
	return nil
}

// maxMinAlloc runs weighted water-filling: capacity is shared in
// proportion to weights, tenants whose demand is below their share keep
// only their demand, and the surplus is re-shared among the rest until
// everyone is capped by demand or the water level. Iteration is over
// sorted names so the result is deterministic.
func maxMinAlloc(capacity float64, demands, weights map[string]float64) map[string]float64 {
	alloc := make(map[string]float64, len(demands))
	names := make([]string, 0, len(demands))
	for name := range demands {
		names = append(names, name)
	}
	sort.Strings(names)
	active := append([]string(nil), names...)
	remaining := capacity
	for len(active) > 0 && remaining > 1e-9 {
		var wsum float64
		for _, name := range active {
			wsum += weights[name]
		}
		if wsum <= 0 {
			break
		}
		level := remaining / wsum
		var next []string
		progressed := false
		for _, name := range active {
			share := level * weights[name]
			want := demands[name] - alloc[name]
			if want <= share+1e-9 {
				// Demand satisfied below the water level; release surplus.
				alloc[name] = demands[name]
				remaining -= want
				progressed = true
			} else {
				next = append(next, name)
			}
		}
		if !progressed {
			// Everyone is demand-limited above the level: fill to level.
			for _, name := range active {
				alloc[name] += level * weights[name]
				remaining -= level * weights[name]
			}
			break
		}
		active = next
	}
	return alloc
}
