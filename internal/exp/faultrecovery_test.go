package exp

import (
	"testing"
	"time"
)

// faultRecoveryParams scales the three phase windows down under -short;
// the injected storm fires within the first 70ms of phase 2 either way.
func faultRecoveryParams() FaultRecoveryParams {
	prm := FaultRecoveryGeometry(false)
	if testing.Short() {
		prm.Window = 150 * time.Millisecond
	}
	return prm
}

// TestFaultRecoveryZeroErrors is the PR's acceptance scenario: every
// BPExt stripe is revoked mid-workload inside a metastore partition, and
// the engine must ride it out with zero query-visible errors while the
// FS re-leases and restripes, with throughput recovering afterwards.
func TestFaultRecoveryZeroErrors(t *testing.T) {
	res, err := RunFaultRecovery(1, faultRecoveryParams())
	if err != nil {
		t.Fatal(err)
	}
	if res.Errors != 0 {
		t.Errorf("engine saw %d query errors during fault storm, want 0", res.Errors)
	}
	if res.Lost == 0 {
		t.Error("no stripe-loss events detected; the storm did not land")
	}
	if res.Restripes == 0 {
		t.Error("no stripes were re-leased")
	}
	if res.Salvages == 0 {
		t.Error("no salvage callbacks ran")
	}
	if res.Timeouts == 0 {
		t.Error("metastore partition never rejected an operation")
	}
	if !res.ExtHealthy {
		t.Error("BPExt should survive the storm (degraded, then repaired)")
	}
	if !res.Recovered {
		t.Errorf("throughput did not recover: healthy=%.0f after=%.0f",
			res.Healthy, res.After)
	}
}

// TestFaultRecoveryDeterministic re-runs the identical storm and demands
// bit-identical results — the point of injecting faults at virtual
// times in a deterministic simulation.
func TestFaultRecoveryDeterministic(t *testing.T) {
	a, err := RunFaultRecovery(7, faultRecoveryParams())
	if err != nil {
		t.Fatal(err)
	}
	b, err := RunFaultRecovery(7, faultRecoveryParams())
	if err != nil {
		t.Fatal(err)
	}
	if *a != *b {
		t.Errorf("same seed, different outcomes:\n  %+v\n  %+v", *a, *b)
	}
}
