package exp

import "testing"

// TestFaultRecoveryDeterministic re-runs the identical storm and demands
// bit-identical results — the point of injecting faults at virtual
// times in a deterministic simulation.
func TestFaultRecoveryDeterministic(t *testing.T) {
	a, err := RunFaultRecovery(7, FaultRecoveryGeometry(false))
	if err != nil {
		t.Fatal(err)
	}
	b, err := RunFaultRecovery(7, FaultRecoveryGeometry(false))
	if err != nil {
		t.Fatal(err)
	}
	if *a != *b {
		t.Errorf("same seed, different outcomes:\n  %+v\n  %+v", *a, *b)
	}
}
