// Package opt implements the device-aware cost model the paper argues
// the optimizer needs once semantic-cache structures live in remote
// memory (Section 6.4): the random-seek and sequential-scan costs of a
// structure depend on the tier holding it (HDD, SSD, remote memory,
// local memory), which moves the crossover point between an index
// nested-loop join and a hash join (Figure 15b).
package opt

import (
	"time"
)

// Tier is where a structure's pages live.
type Tier int

// Storage tiers, fastest last.
const (
	TierHDD Tier = iota
	TierSSD
	TierRemote
	TierLocal
)

func (t Tier) String() string {
	switch t {
	case TierHDD:
		return "HDD"
	case TierSSD:
		return "SSD"
	case TierRemote:
		return "RemoteMemory"
	case TierLocal:
		return "LocalMemory"
	}
	return "unknown"
}

// Costs is the per-8K-page access cost of a tier.
type Costs struct {
	RandomPage time.Duration // one random page fetch
	SeqPage    time.Duration // one page within a large sequential scan
}

// DefaultCosts mirrors the calibrated device models (Figures 3/4):
// HDD(20) random ≈ 3.7 ms vs 4.7 µs/page sequential; SSD ≈ 260 µs vs
// 20 µs; remote memory over RDMA ≈ 13 µs vs 1.9 µs; local memory < 1 µs.
func DefaultCosts() map[Tier]Costs {
	return map[Tier]Costs{
		TierHDD:    {RandomPage: 3700 * time.Microsecond, SeqPage: 4700 * time.Nanosecond},
		TierSSD:    {RandomPage: 260 * time.Microsecond, SeqPage: 20 * time.Microsecond},
		TierRemote: {RandomPage: 13 * time.Microsecond, SeqPage: 1900 * time.Nanosecond},
		TierLocal:  {RandomPage: 500 * time.Nanosecond, SeqPage: 300 * time.Nanosecond},
	}
}

// Model is the cost model.
type Model struct {
	Tiers   map[Tier]Costs
	RowCPU  time.Duration // per-row processing
	HashCPU time.Duration // per-row hash build/probe
}

// NewModel builds a model with the default tier table.
func NewModel() *Model {
	return &Model{
		Tiers:   DefaultCosts(),
		RowCPU:  300 * time.Nanosecond,
		HashCPU: 200 * time.Nanosecond,
	}
}

// JoinInputs describes a two-table equi-join for plan choice.
type JoinInputs struct {
	OuterRows  int64 // rows surviving the outer-side predicate
	InnerRows  int64 // total rows of the inner table
	InnerPages int64 // pages of the inner table (scan denominator)
	// InnerIndex describes the secondary index usable by INLJ.
	IndexHeight    int   // B-tree levels touched per seek
	MatchesPerSeek int64 // average inner rows per outer row
	IndexTier      Tier  // where the index pages live
	TableTier      Tier  // where the base table pages live
}

// CostINLJ estimates an index nested-loop join: one index seek plus
// bookmark lookups per outer row.
func (m *Model) CostINLJ(in JoinInputs) time.Duration {
	c := m.Tiers[in.IndexTier]
	tbl := m.Tiers[in.TableTier]
	perOuter := time.Duration(in.IndexHeight)*c.RandomPage + // seek
		time.Duration(in.MatchesPerSeek)*tbl.RandomPage + // bookmark lookups
		time.Duration(in.MatchesPerSeek)*m.RowCPU
	return time.Duration(in.OuterRows) * perOuter
}

// CostHJ estimates a hash join: scan the inner table sequentially, build
// a hash table, probe with the outer rows.
func (m *Model) CostHJ(in JoinInputs) time.Duration {
	c := m.Tiers[in.TableTier]
	scan := time.Duration(in.InnerPages) * c.SeqPage
	build := time.Duration(in.InnerRows) * (m.RowCPU + m.HashCPU)
	probe := time.Duration(in.OuterRows) * m.HashCPU
	return scan + build + probe
}

// JoinPlan names the chosen strategy.
type JoinPlan int

// Join strategies.
const (
	PlanINLJ JoinPlan = iota
	PlanHashJoin
)

func (p JoinPlan) String() string {
	if p == PlanINLJ {
		return "IndexNestedLoopJoin"
	}
	return "HashJoin"
}

// ChooseJoin picks the cheaper strategy.
func (m *Model) ChooseJoin(in JoinInputs) (JoinPlan, time.Duration, time.Duration) {
	inlj := m.CostINLJ(in)
	hj := m.CostHJ(in)
	if inlj <= hj {
		return PlanINLJ, inlj, hj
	}
	return PlanHashJoin, inlj, hj
}

// ScanInputs describes a (possibly range-restricted) table scan for
// DOP choice.
type ScanInputs struct {
	Rows  int64 // rows the scan will read
	Pages int64 // pages the scan will read
	Tier  Tier  // where the table pages live
}

// WorkerStartup is the fixed cost of spawning one parallel scan worker
// (process setup plus its first tree descent). It is what makes small
// scans stay serial: below ~a few thousand rows the startup dwarfs the
// per-page savings.
const WorkerStartup = 100 * time.Microsecond

// CostScan estimates a scan at the given DOP: I/O and per-row CPU divide
// across workers, startup is paid per worker, and the exchange merge
// adds a small per-row toll on the consumer. The executor delivers the
// division: exec.ParallelScan deals PK morsels that fit a worker's queue
// round-robin to its DOP workers, so every worker scans while the
// in-order merge drains an earlier morsel.
func (m *Model) CostScan(in ScanInputs, dop int) time.Duration {
	if dop < 1 {
		dop = 1
	}
	c := m.Tiers[in.Tier]
	work := time.Duration(in.Pages)*c.SeqPage + time.Duration(in.Rows)*m.RowCPU
	cost := work / time.Duration(dop)
	if dop > 1 {
		cost += time.Duration(dop) * WorkerStartup
		cost += time.Duration(in.Rows) * (m.RowCPU / 4) // exchange merge toll
	}
	return cost
}

// ChooseScanDOP picks the cheapest DOP in [1, maxDOP]. The curve flattens
// once the merge toll and worker startup eat the division, which is the
// model-side analogue of the NIC/core saturation in Figure 11b.
func (m *Model) ChooseScanDOP(in ScanInputs, maxDOP int) int {
	best, bestCost := 1, m.CostScan(in, 1)
	for d := 2; d <= maxDOP; d++ {
		if c := m.CostScan(in, d); c < bestCost {
			best, bestCost = d, c
		}
	}
	return best
}

// CrossoverSelectivity finds the fraction of outer rows at which the
// model switches from INLJ to HJ (bisection over selectivity). Returns
// 1.0 when INLJ wins everywhere, 0 when HJ wins everywhere.
func (m *Model) CrossoverSelectivity(in JoinInputs, totalOuter int64) float64 {
	at := func(sel float64) JoinPlan {
		trial := in
		trial.OuterRows = int64(sel * float64(totalOuter))
		if trial.OuterRows < 1 {
			trial.OuterRows = 1
		}
		plan, _, _ := m.ChooseJoin(trial)
		return plan
	}
	if at(1.0) == PlanINLJ {
		return 1.0
	}
	if at(0.000001) == PlanHashJoin {
		return 0
	}
	lo, hi := 0.000001, 1.0
	for i := 0; i < 40; i++ {
		mid := (lo + hi) / 2
		if at(mid) == PlanINLJ {
			lo = mid
		} else {
			hi = mid
		}
	}
	return (lo + hi) / 2
}
