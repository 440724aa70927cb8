package opt

import (
	"math"
	"testing"
	"time"

	"remotedb/internal/rmem"
)

func pushIn(sel float64) PushScanInputs {
	return PushScanInputs{
		Rows:        100_000,
		Bytes:       16 << 20,
		OutBytes:    64,
		Selectivity: sel,
		Leaves:      2,
		LocalTier:   TierRemote,
	}
}

func TestCostPushScanArithmetic(t *testing.T) {
	m := NewModel()
	in := pushIn(0.01)
	matched := int64(float64(in.Rows) * in.Selectivity)
	donor := rmem.PushEvalCost(in.Bytes, in.Rows, in.Leaves)
	retPages := (matched*in.OutBytes + PageBytes - 1) / PageBytes
	want := donor +
		time.Duration(retPages)*m.Tiers[TierRemote].SeqPage +
		time.Duration(matched)*m.RowCPU +
		m.Tiers[TierRemote].RandomPage
	if got := m.CostPushScan(in); got != want {
		t.Errorf("CostPushScan = %v, want hand-computed %v", got, want)
	}
	fetchPages := (in.Bytes + PageBytes - 1) / PageBytes
	wantFetch := time.Duration(fetchPages)*m.Tiers[TierRemote].SeqPage +
		time.Duration(in.Rows)*m.RowCPU
	if got := m.CostFetchAll(in); got != wantFetch {
		t.Errorf("CostFetchAll = %v, want hand-computed %v", got, wantFetch)
	}
}

func TestChoosePlacementSelectivityRegimes(t *testing.T) {
	m := NewModel()
	// 1% selectivity: the wire shrinks ~100x, donor CPU is cheap — push.
	if pl, push, fetch, _ := m.ChoosePlacement(pushIn(0.01)); pl != PlacePush {
		t.Errorf("1%% selectivity placed %v (push %v, fetch %v)", pl, push, fetch)
	}
	// 100% selectivity: every byte returns anyway, donor CPU is pure
	// overhead — fetch-all.
	if pl, push, fetch, _ := m.ChoosePlacement(pushIn(1.0)); pl != PlaceFetchAll {
		t.Errorf("100%% selectivity placed %v (push %v, fetch %v)", pl, push, fetch)
	}
	// An unselective scan of a local-memory-resident table beats both
	// remote options: same client eval bill, no wire and no donor CPU.
	in := pushIn(1.0)
	in.LocalTier = TierLocal
	if pl, _, _, _ := m.ChoosePlacement(in); pl != PlaceLocal {
		t.Errorf("local-resident table placed %v, want PlaceLocal", pl)
	}
}

func TestPushCrossoverMatchesHandMath(t *testing.T) {
	m := NewModel()
	in := pushIn(0)
	// Push and fetch-all costs are (up to page rounding) linear in
	// selectivity; solve CostPush(sel) = CostFetchAll for sel by hand:
	//   donor + sel·R·OB·(SeqR/P) + sel·R·RowCPU + RandR
	//     = B·(SeqR/P) + R·RowCPU
	seqPerByte := float64(m.Tiers[TierRemote].SeqPage) / PageBytes
	donor := float64(rmem.PushEvalCost(in.Bytes, in.Rows, in.Leaves))
	fetch := float64(in.Bytes)*seqPerByte + float64(in.Rows)*float64(m.RowCPU)
	perSel := float64(in.Rows)*float64(in.OutBytes)*seqPerByte +
		float64(in.Rows)*float64(m.RowCPU)
	hand := (fetch - donor - float64(m.Tiers[TierRemote].RandomPage)) / perSel
	got := m.PushCrossoverSelectivity(in)
	if math.Abs(got-hand) > 0.01 {
		t.Errorf("crossover = %v, hand-computed %v", got, hand)
	}
	// And the model actually flips around it.
	lo, hi := pushIn(hand*0.9), pushIn(hand*1.1)
	if pl, _, _, _ := m.ChoosePlacement(lo); pl != PlacePush {
		t.Errorf("below crossover placed %v, want push", pl)
	}
	if pl, _, _, _ := m.ChoosePlacement(hi); pl != PlaceFetchAll {
		t.Errorf("above crossover placed %v, want fetch-all", pl)
	}
}
