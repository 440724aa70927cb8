package exp

import "testing"

func TestPlanCacheSmoke(t *testing.T) {
	prm := PlanCacheGeometry(false)
	prm.Reps = 40
	if testing.Short() {
		prm.Reps = 15
	}
	res, err := RunPlanCache(1, prm)
	if err != nil {
		t.Fatal(err)
	}
	t.Logf("cached=%v uncached=%v cold=%v warm=%v hits=%d misses=%d speedup=%.2fx",
		res.CachedTime, res.UncachedTime, res.ColdLat, res.WarmLat, res.Hits, res.Misses, res.Speedup)
	if res.Hits == 0 {
		t.Error("plan cache saw no hits on a repeated query stream")
	}
	if res.Misses != 1 {
		t.Errorf("misses = %d, want 1 (one shape in the stream)", res.Misses)
	}
	if res.Speedup <= 1 {
		t.Errorf("plan cache speedup = %.2fx, want > 1x", res.Speedup)
	}
}

func TestParScanSmoke(t *testing.T) {
	prm := ParScanGeometry(false)
	prm.SF = 0.02
	prm.DOPs = []int{1, 4}
	if testing.Short() {
		prm.DOPs = []int{1, 2}
	}
	pts, err := RunParScan(1, prm)
	if err != nil {
		t.Fatal(err)
	}
	for _, pt := range pts {
		t.Logf("DOP %2d: %v (%.0f rows/s, %.2fx)", pt.DOP, pt.Elapsed, pt.RowsPerSec, pt.Speedup)
	}
	last := pts[len(pts)-1]
	if last.Speedup <= 1 {
		t.Errorf("parallel scan at DOP %d is %.2fx of serial, want > 1x", last.DOP, last.Speedup)
	}
}
