// Placement costing for pushed scans: once a table has a pushable
// segment in remote memory, a selective scan can run three ways —
// locally over the buffer pool, pushed to the donors (only qualifying
// bytes on the wire, donor CPU on the bill), or fetched whole and
// evaluated client-side. The wire term scales with selectivity, the
// donor term with segment size, so pushdown wins at low selectivity and
// fetch-all takes over as the predicate stops filtering — the REMOP
// observation that remote-tier operator placement must be costed, not
// assumed. ChoosePlacement's decision is cached in the plan cache
// alongside INLJ-vs-HJ.
package opt

import (
	"time"

	"remotedb/internal/rmem"
)

// PageBytes converts the per-8K-page tier costs into byte-rate terms
// for segment-sized transfers.
const PageBytes = 8192

// Placement is where a pushable scan's predicate runs.
type Placement int

// Scan placements, cheapest-at-low-selectivity first.
const (
	// PlacePush evaluates at the donors; only qualifying bytes return.
	PlacePush Placement = iota
	// PlaceFetchAll ships the whole segment and evaluates client-side.
	PlaceFetchAll
	// PlaceLocal scans the buffer-pool-resident base table instead of
	// the remote segment.
	PlaceLocal
)

func (pl Placement) String() string {
	switch pl {
	case PlacePush:
		return "PushScan"
	case PlaceFetchAll:
		return "FetchAll"
	case PlaceLocal:
		return "LocalScan"
	}
	return "unknown"
}

// PushScanInputs describes one selective scan over a pushable segment.
type PushScanInputs struct {
	Rows        int64   // records in the scanned range
	Bytes       int64   // segment log bytes in the range
	OutBytes    int64   // projected bytes per qualifying row
	Selectivity float64 // estimated fraction of rows qualifying
	Leaves      int     // pushable predicate leaf count
	LocalTier   Tier    // tier serving a local buffered scan of the base table
	DOP         int     // partitions evaluated concurrently (0/1 = serial)
}

// cpuDiv scales a CPU term by the plan's parallelism: compute spreads
// across partitions (donor cores for pushed eval, client cores for
// fetch-all eval), but the wire terms never divide — every returned
// byte funnels through the one client NIC regardless of DOP. That
// asymmetry is why parallel pushdown beats parallel fetch-all even
// when a single donor scans no faster than the wire ships.
func (in PushScanInputs) cpuDiv(d time.Duration) time.Duration {
	if in.DOP > 1 {
		return d / time.Duration(in.DOP)
	}
	return d
}

// wireCost prices moving n bytes from the given tier sequentially.
func (m *Model) wireCost(tier Tier, n int64) time.Duration {
	pages := (n + PageBytes - 1) / PageBytes
	return time.Duration(pages) * m.Tiers[tier].SeqPage
}

func (in PushScanInputs) matched() int64 {
	mr := int64(float64(in.Rows) * in.Selectivity)
	if mr < 0 {
		mr = 0
	}
	if mr > in.Rows {
		mr = in.Rows
	}
	return mr
}

// CostPushScan estimates a donor-evaluated scan: the donors verify and
// scan the whole segment (rmem.PushEvalCost), then only the qualifying
// projected bytes cross the wire and get decoded client-side.
func (m *Model) CostPushScan(in PushScanInputs) time.Duration {
	donor := rmem.PushEvalCost(in.Bytes, in.Rows, in.Leaves)
	ret := in.matched() * in.OutBytes
	cost := in.cpuDiv(donor) + m.wireCost(TierRemote, ret)
	cost += in.cpuDiv(time.Duration(in.matched()) * m.RowCPU) // client-side decode
	cost += m.Tiers[TierRemote].RandomPage                    // request descriptor round trip
	return cost
}

// CostFetchAll estimates shipping the whole segment and evaluating
// client-side: the full wire bill, no donor CPU.
func (m *Model) CostFetchAll(in PushScanInputs) time.Duration {
	cost := m.wireCost(TierRemote, in.Bytes)
	cost += in.cpuDiv(time.Duration(in.Rows) * m.RowCPU) // client-side eval of every row
	return cost
}

// CostLocalScan estimates scanning the buffer-pool-resident base table:
// every page at the local tier's sequential rate, every row evaluated.
func (m *Model) CostLocalScan(in PushScanInputs) time.Duration {
	cost := m.wireCost(in.LocalTier, in.Bytes)
	cost += in.cpuDiv(time.Duration(in.Rows) * m.RowCPU)
	return cost
}

// ChoosePlacement picks the cheapest of push/fetch-all/local for the
// scan, returning the choice and all three estimates (push, fetch-all,
// local) for observability.
func (m *Model) ChoosePlacement(in PushScanInputs) (Placement, time.Duration, time.Duration, time.Duration) {
	push := m.CostPushScan(in)
	fetch := m.CostFetchAll(in)
	local := m.CostLocalScan(in)
	best, bestCost := PlacePush, push
	if fetch < bestCost {
		best, bestCost = PlaceFetchAll, fetch
	}
	if local < bestCost {
		best = PlaceLocal
	}
	return best, push, fetch, local
}

// PushCrossoverSelectivity finds the selectivity at which the model
// switches from pushed scan to fetch-all (bisection). Returns 1.0 when
// pushdown wins everywhere, 0 when fetch-all always wins.
func (m *Model) PushCrossoverSelectivity(in PushScanInputs) float64 {
	at := func(sel float64) bool {
		trial := in
		trial.Selectivity = sel
		return m.CostPushScan(trial) <= m.CostFetchAll(trial)
	}
	if at(1.0) {
		return 1.0
	}
	if !at(0.000001) {
		return 0
	}
	lo, hi := 0.000001, 1.0
	for i := 0; i < 40; i++ {
		mid := (lo + hi) / 2
		if at(mid) {
			lo = mid
		} else {
			hi = mid
		}
	}
	return (lo + hi) / 2
}
