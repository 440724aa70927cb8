package exp

import (
	"testing"
	"time"
)

func TestFig15aSmoke(t *testing.T) {
	// The quick scale factor in both modes: at 0.01 the MVs get small
	// enough that the SSD-placement improvement dips under the asserted 1.5x.
	res, remoteOverSSD, err := RunFig15aSemanticCacheMV(1, Fig15Geometry(true))
	if err != nil {
		t.Fatal(err)
	}
	if len(res) != 7 {
		t.Fatalf("cases = %d, want 7", len(res))
	}
	for _, r := range res {
		t.Logf("Q%d: base=%v ssd=%v remote=%v (%.0fx / %.0fx) mv=%dKB",
			r.QueryID, r.BaseLatency, r.SSDLatency, r.RemoteLat,
			r.ImprovementSSD(), r.ImprovementRemote(), r.MVBytes>>10)
		if r.ImprovementSSD() < 1.5 {
			t.Errorf("Q%d: MV on SSD should improve the query (%.2fx)", r.QueryID, r.ImprovementSSD())
		}
		if r.RemoteLat > r.SSDLatency {
			t.Errorf("Q%d: remote MV (%v) should not be slower than SSD MV (%v)", r.QueryID, r.RemoteLat, r.SSDLatency)
		}
	}
	t.Logf("aggregate remote-over-ssd factor: %.2fx", remoteOverSSD)
	if remoteOverSSD < 1.2 {
		t.Errorf("remote placement should beat SSD placement overall: %.2fx", remoteOverSSD)
	}
}

func TestFig15bSmoke(t *testing.T) {
	remote, ssd, err := RunFig15bSeekVsScan(1, Fig15Geometry(true))
	if err != nil {
		t.Fatal(err)
	}
	cross := func(pts []Fig15bPoint) float64 {
		// Return the highest selectivity at which INLJ still wins.
		last := 0.0
		for _, pt := range pts {
			if pt.INLJ < pt.HJ {
				last = pt.Selectivity
			}
		}
		return last
	}
	for _, pt := range remote {
		t.Logf("remote sel=%.4f inlj=%v hj=%v", pt.Selectivity, pt.INLJ, pt.HJ)
	}
	for _, pt := range ssd {
		t.Logf("ssd    sel=%.4f inlj=%v hj=%v", pt.Selectivity, pt.INLJ, pt.HJ)
	}
	cr, cs := cross(remote), cross(ssd)
	t.Logf("crossover: remote=%.4f ssd=%.4f", cr, cs)
	// At low selectivity INLJ must win somewhere; at 20% HJ must win.
	if remote[0].INLJ >= remote[0].HJ {
		t.Error("remote: INLJ should win at the lowest selectivity")
	}
	last := remote[len(remote)-1]
	if last.INLJ <= last.HJ {
		t.Error("remote: HJ should win at the highest selectivity")
	}
	// The paper's point: the crossover moves right when seeks are cheap.
	if cr < cs {
		t.Errorf("remote crossover (%.4f) should be >= ssd crossover (%.4f)", cr, cs)
	}
}

func TestFig26Smoke(t *testing.T) {
	pts, err := RunFig26CacheRecovery(1)
	if err != nil {
		t.Fatal(err)
	}
	var prev time.Duration
	for _, pt := range pts {
		t.Logf("dirty=%dMB recovery=%v replayed=%d", pt.DirtyBytes>>20, pt.RecoveryTime, pt.Replayed)
		if pt.RecoveryTime <= prev {
			t.Error("recovery time should grow with dirty volume")
		}
		prev = pt.RecoveryTime
	}
	// Near-linear with an intercept (the paper's Figure 26 has one too:
	// <1 GB in tens of seconds, 16 GB in ~4 minutes = 12x for 16x data).
	ratio := float64(pts[len(pts)-1].RecoveryTime) / float64(pts[0].RecoveryTime)
	if ratio < 2.5 || ratio > 40 {
		t.Errorf("recovery scaling = %.1fx for 16x data", ratio)
	}
	// The marginal cost must keep growing with the dirty volume.
	d1 := pts[3].RecoveryTime - pts[2].RecoveryTime
	d2 := pts[4].RecoveryTime - pts[3].RecoveryTime
	if d2 <= d1 {
		t.Errorf("marginal recovery cost not growing: %v then %v", d1, d2)
	}
}
