// These tests drive the bed through the public facade (package
// remotedb) and its functional-options constructors — the bare-Config
// entry points they used to call are deprecated.
package exp_test

import (
	"testing"
	"time"

	"remotedb"
	"remotedb/internal/exp"
	"remotedb/internal/workload"
)

// TestRemoteFailureMidWorkload kills the memory server halfway through a
// RangeScan run: the BPExt must disable itself, the workload must keep
// producing correct results from the data file, and throughput must drop
// to the no-extension regime (the paper's best-effort contract, §4.1.5).
func TestRemoteFailureMidWorkload(t *testing.T) {
	rows, clients, window := 200000, 40, 300*time.Millisecond
	err := remotedb.RunInSim(1, 2*time.Hour, func(p *remotedb.Proc) error {
		bed, err := remotedb.NewTestBed(p, remotedb.DesignCustom,
			remotedb.WithBufferFrames(2048), // 16 MiB local pool
			remotedb.WithBPExtBytes(64<<20))
		if err != nil {
			return err
		}
		wcfg := workload.DefaultRangeScan()
		wcfg.Rows = rows
		wcfg.Clients = clients
		w, err := workload.NewRangeScan(p, bed.Eng, wcfg)
		if err != nil {
			return err
		}
		// Warm, then measure with the extension alive.
		healthy := w.Run(p, window, window)
		if !bed.Eng.BP.ExtensionHealthy() {
			t.Error("extension should be healthy before the failure")
		}

		// Kill every memory server.
		for _, px := range bed.Proxies {
			bed.Broker.FailProxy(px)
		}
		degraded := w.Run(p, window*2/3, window)

		t.Logf("healthy: %.0f q/s (%d errors), degraded: %.0f q/s (%d errors)",
			healthy.Throughput(), healthy.Errors, degraded.Throughput(), degraded.Errors)
		if bed.Eng.BP.ExtensionHealthy() {
			t.Error("extension should be disabled after the remote failure")
		}
		if healthy.Errors != 0 {
			t.Errorf("healthy phase had %d errors", healthy.Errors)
		}
		if degraded.Errors != 0 {
			t.Errorf("degraded phase had %d errors: correctness must not depend on remote memory", degraded.Errors)
		}
		if degraded.Throughput() >= healthy.Throughput() {
			t.Errorf("throughput should degrade without the extension: %.0f -> %.0f",
				healthy.Throughput(), degraded.Throughput())
		}
		if degraded.Queries == 0 {
			t.Error("workload stopped after remote failure")
		}
		bed.Close(p)
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

// TestMemoryPressureReclaimsMidWorkload: the donor commits local memory
// mid-run; the broker reclaims MRs (free first, then revoking leases)
// and the workload keeps running.
func TestMemoryPressureReclaimsMidWorkload(t *testing.T) {
	rows, clients, window := 100000, 20, 300*time.Millisecond
	err := remotedb.RunInSim(1, 2*time.Hour, func(p *remotedb.Proc) error {
		bed, err := remotedb.NewTestBed(p, remotedb.DesignCustom,
			remotedb.WithBufferFrames(2048), // 16 MiB local pool
			remotedb.WithBPExtBytes(64<<20),
			remotedb.WithRemoteServers(1))
		if err != nil {
			return err
		}
		wcfg := workload.DefaultRangeScan()
		wcfg.Rows = rows
		wcfg.Clients = clients
		w, err := workload.NewRangeScan(p, bed.Eng, wcfg)
		if err != nil {
			return err
		}
		w.Run(p, 0, window)

		// The donor suddenly needs almost everything.
		donor := bed.Mems[0]
		need := donor.MemoryFree() + donor.MemoryBrokered() - 8<<20
		if err := donor.CommitLocal(need); err != nil {
			t.Errorf("donor's local demand must win: %v", err)
		}
		if bed.Broker.Revocations() == 0 {
			t.Error("pressure should have revoked leases")
		}
		after := w.Run(p, 0, window)
		if after.Errors != 0 {
			t.Errorf("%d errors after reclamation", after.Errors)
		}
		if after.Queries == 0 {
			t.Error("workload stopped after reclamation")
		}
		bed.Close(p)
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

// TestDeterminismAcrossRuns: the same seed must reproduce the same
// throughput bit for bit (the repository's headline determinism claim).
func TestDeterminismAcrossRuns(t *testing.T) {
	run := func() float64 {
		prm := exp.DefaultRangeScanParams()
		prm.Rows = 100000
		prm.Clients = 20
		prm.Measure = 300 * time.Millisecond
		r, err := exp.RunRangeScan(7, exp.DesignCustom, prm)
		if err != nil {
			t.Fatal(err)
		}
		return r.Throughput
	}
	a, b := run(), run()
	if a != b {
		t.Fatalf("same seed, different results: %.4f vs %.4f", a, b)
	}
}

// TestSeedChangesResults: different seeds must actually change the
// random streams (guards against accidentally fixed RNGs). The witness
// is the mean query latency in ns, which every random draw moves; the
// throughput of a CPU-bound bed is a count of a few thousand queries in
// the window and ties across seeds by construction.
func TestSeedChangesResults(t *testing.T) {
	run := func(seed int64) time.Duration {
		prm := exp.DefaultRangeScanParams()
		// Larger than local memory so cache misses (and thus timing)
		// depend on the random key stream.
		prm.Rows = 300000
		prm.Clients = 20
		prm.Measure = 300 * time.Millisecond
		r, err := exp.RunRangeScan(seed, exp.DesignCustom, prm)
		if err != nil {
			t.Fatal(err)
		}
		return r.MeanLat
	}
	if a, b := run(1), run(2); a == b {
		t.Fatalf("different seeds produced identical mean latency: %d ns", a)
	}
}
