package exp

import "testing"

// TestScrubCorruptionStorm is the tentpole acceptance test: a storm of
// bit flips, torn writes, and stale-replica resurrections poked into
// donor memory mid-RangeScan must be fully detected — no silently wrong
// bytes ever reach the engine — and repaired from a healthy replica,
// with zero engine-visible errors and no block left unreadable.
func TestScrubCorruptionStorm(t *testing.T) {
	prm := ScrubGeometry(testing.Short())
	res, err := RunScrub(1, prm)
	if err != nil {
		t.Fatal(err)
	}
	t.Logf("corruption storm: injected=%d detected=%d repaired=%d failovers=%d sweeps=%d checked=%d errors=%d",
		res.Injected, res.Detected, res.Repaired, res.Failovers,
		res.ScrubSweeps, res.ScrubChecked, res.Errors)
	if res.Errors != 0 {
		t.Errorf("corruption storm leaked %d engine-visible errors, want 0", res.Errors)
	}
	if res.Detected == 0 {
		t.Error("no corruption detected: injections did not land or verification is dead")
	}
	if res.Repaired == 0 {
		t.Error("no frame repaired from a replica")
	}
	if res.Poisoned != 0 {
		t.Errorf("%d blocks left poisoned, want 0 (every corruption had a healthy copy)", res.Poisoned)
	}
	if res.ScrubSweeps == 0 || res.ScrubChecked == 0 {
		t.Errorf("scrubber idle: sweeps=%d checked=%d", res.ScrubSweeps, res.ScrubChecked)
	}

	t.Logf("revocation storm: stripes=%d replicaRepairs=%d salvages=%d lost=%d errors=%d healthy=%v",
		res.StormStripes, res.ReplicaRepairs, res.Salvages, res.LostStripes,
		res.StormErrors, res.StormHealthy)
	if res.StormStripes < 16 {
		t.Errorf("storm hit %d stripes, want >= 16", res.StormStripes)
	}
	if res.StormErrors != 0 {
		t.Errorf("revocation storm leaked %d engine-visible errors, want 0", res.StormErrors)
	}
	if res.Salvages != 0 {
		t.Errorf("%d salvage invocations, want 0: replication must absorb revocation without salvage", res.Salvages)
	}
	if res.LostStripes != 0 {
		t.Errorf("%d whole-stripe losses, want 0: a replica survived every revocation", res.LostStripes)
	}
	if res.ReplicaRepairs < int64(res.StormStripes) {
		t.Errorf("replicaRepairs=%d, want >= %d (every revoked replica rebuilt)",
			res.ReplicaRepairs, res.StormStripes)
	}
	if !res.StormHealthy {
		t.Error("bpext not fully re-replicated after settling")
	}
}
