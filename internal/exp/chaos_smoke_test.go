package exp

import (
	"testing"
	"time"
)

func TestChaosSmoke(t *testing.T) {
	prm := ChaosGeometry(true)
	if testing.Short() {
		// Half the bed and the windows: every scenario still crosses its
		// assertion thresholds (hedging needs only a handful of slow
		// stripes, the storm needs one shed wave), in a fraction of the
		// closed-loop event volume.
		prm.Holders = 24
		prm.Donors = 8
		prm.Measure = 30 * time.Millisecond
		prm.WarmReads = 100
		prm.ReadsPerHolder = 200
		prm.FlapCycles = 2
	}
	r, err := RunChaos(1, prm)
	if err != nil {
		t.Fatal(err)
	}
	t.Logf("hedge: cut=%.1fx rate=%.3f (hedged=%d wins=%d)", r.HedgeCut, r.HedgeRate, r.Hedged, r.HedgeWins)
	t.Logf("storm: healthy p99=%v storm p99=%v recovered %.0f B/s of %.0f B/s (shed %d)",
		r.Healthy.P99, r.Storm.P99, r.Recovered.BytesPerSec, r.Healthy.BytesPerSec, r.Shed)
	t.Logf("flap: brownouts=%d quarantines=%d probes=%d recoveries=%d reports=%d",
		r.FlapBrownouts, r.FlapQuarantines, r.FlapProbes, r.FlapRecoveries, r.HealthReports)
}
