package exp

import (
	"testing"
	"time"
)

// TestRangeScanDesignOrdering checks Figure 9's ordering at 20 spindles:
// SMBDirect beats SMB beats HDD+SSD beats HDD, and Custom lands within
// ~20% of Local Memory (a headline claim of the paper). Custom against
// SMBDirect is a CPU-bound tie here, as the remote designs bunch under
// Local Memory in the paper's figure: Custom spins a core through each
// transfer, SMBDirect pays a context switch for it.
func TestRangeScanDesignOrdering(t *testing.T) {
	prm := DefaultRangeScanParams()
	prm.Measure = 500 * time.Millisecond
	if testing.Short() {
		// Keep the table (the ordering depends on the working set vs the
		// 32 MiB pool); shrink only the windows.
		prm.Warmup = 300 * time.Millisecond
		prm.Measure = 250 * time.Millisecond
	}
	get := func(d Design) float64 {
		r, err := RunRangeScan(1, d, prm)
		if err != nil {
			t.Fatalf("%v: %v", d, err)
		}
		t.Logf("%-22s %8.0f q/s mean=%v", d, r.Throughput, r.MeanLat)
		return r.Throughput
	}
	hdd := get(DesignHDD)
	hddssd := get(DesignHDDSSD)
	smb := get(DesignSMB)
	smbd := get(DesignSMBDirect)
	custom := get(DesignCustom)
	local := get(DesignLocalMemory)

	if !(custom >= 0.99*smbd && smbd > smb && smb > hddssd && hddssd > hdd) {
		t.Errorf("design ordering violated: custom=%.0f smbd=%.0f smb=%.0f hddssd=%.0f hdd=%.0f",
			custom, smbd, smb, hddssd, hdd)
	}
	if custom < local*0.80 {
		t.Errorf("Custom (%.0f) should be within ~20%% of Local Memory (%.0f)", custom, local)
	}
	if custom < hddssd*2.5 {
		t.Errorf("Custom (%.0f) should be >=3x HDD+SSD (%.0f) per the paper's 3x-10x claim", custom, hddssd)
	}
}

// TestRangeScanUpdatesSpindleScaling checks Figure 7's HDD-log effect:
// with 20%% updates, more spindles means higher throughput for Custom
// (the WAL lives on the HDD array).
func TestRangeScanUpdatesSpindleScaling(t *testing.T) {
	prm := DefaultRangeScanParams()
	prm.Measure = 500 * time.Millisecond
	prm.UpdateFraction = 0.20
	if testing.Short() {
		prm.Warmup = 300 * time.Millisecond
		prm.Measure = 250 * time.Millisecond
	}
	var prev float64
	for _, sp := range []int{4, 20} {
		prm.Spindles = sp
		r, err := RunRangeScan(1, DesignCustom, prm)
		if err != nil {
			t.Fatal(err)
		}
		t.Logf("spindles=%d: %.0f q/s", sp, r.Throughput)
		if prev > 0 && r.Throughput <= prev {
			t.Errorf("throughput should rise with spindles under updates: %.0f -> %.0f", prev, r.Throughput)
		}
		prev = r.Throughput
	}
}

// TestFig11DrilldownShapes checks Figure 11's claims: remote designs run
// the CPU near saturation while HDD+SSD is I/O-bound at low CPU, and
// Custom's page-fetch latency is far below SMBDirect's under load.
func TestFig11DrilldownShapes(t *testing.T) {
	ddWindow, latWindow := 700*time.Millisecond, 600*time.Millisecond
	if testing.Short() {
		ddWindow, latWindow = 350*time.Millisecond, 300*time.Millisecond
	}
	dds, err := RunFig11Drilldown(1, ddWindow)
	if err != nil {
		t.Fatal(err)
	}
	cpu := make(map[Design]float64)
	for _, dd := range dds {
		cpu[dd.Design] = dd.CPU.Mean()
		t.Logf("%-22s io=%.0f MB/s cpu=%.0f%%", dd.Design, dd.IOBps.Mean()/1e6, dd.CPU.Mean())
	}
	if cpu[DesignCustom] < 60 {
		t.Errorf("Custom CPU = %.0f%%, should be CPU-bound (paper: ~100%%)", cpu[DesignCustom])
	}
	if cpu[DesignHDDSSD] > cpu[DesignCustom]*0.6 {
		t.Errorf("HDD+SSD CPU (%.0f%%) should be far below Custom (%.0f%%)", cpu[DesignHDDSSD], cpu[DesignCustom])
	}

	lats, err := RunFig11Latency(1, latWindow)
	if err != nil {
		t.Fatal(err)
	}
	lat := make(map[Design]time.Duration)
	for _, l := range lats {
		lat[l.Design] = l.Mean
		t.Logf("%-22s fetch latency %v", l.Design, l.Mean)
	}
	if lat[DesignCustom] >= lat[DesignSMBDirect] {
		t.Errorf("Custom fetch latency (%v) should be below SMBDirect (%v) under load",
			lat[DesignCustom], lat[DesignSMBDirect])
	}
}

// TestFig12MoreRemoteMemoryHelps checks Figure 12: throughput rises as
// the BPExt grows, and spreading the same memory over several servers
// changes little.
func TestFig12MoreRemoteMemoryHelps(t *testing.T) {
	fprm := Fig12Geometry(testing.Short())
	single, err := RunFig12BPExtSize(1, false, fprm)
	if err != nil {
		t.Fatal(err)
	}
	for _, pt := range single {
		t.Logf("ext=%dMB servers=%d: %.0f q/s", pt.BPExtBytes>>20, pt.Servers, pt.Throughput)
	}
	first, last := single[0], single[len(single)-1]
	if last.Throughput < first.Throughput*1.5 {
		t.Errorf("growing BPExt %dMB->%dMB should raise throughput markedly: %.0f -> %.0f",
			first.BPExtBytes>>20, last.BPExtBytes>>20, first.Throughput, last.Throughput)
	}
	multi, err := RunFig12BPExtSize(1, true, fprm)
	if err != nil {
		t.Fatal(err)
	}
	for i := range single {
		a, b := single[i].Throughput, multi[i].Throughput
		if b < a*0.75 || b > a*1.25 {
			t.Errorf("point %d: multi-server throughput %.0f deviates from single-server %.0f", i, b, a)
		}
	}
}

// TestFig13TCPHurtsRDMADoesNot checks Figure 13: serving BPExt traffic
// over RDMA leaves the donor's workload intact; TCP costs ~10%.
func TestFig13TCPHurtsRDMADoesNot(t *testing.T) {
	prm := Fig13Geometry(testing.Short())
	res, err := RunFig13RemoteImpact(1, prm)
	if err != nil {
		t.Fatal(err)
	}
	byMode := make(map[string]Fig13Result)
	for _, r := range res {
		byMode[r.Mode] = r
		t.Logf("%-8s %.0f q/s mean=%v p99=%v", r.Mode, r.Throughput, r.MeanLat, r.P99Lat)
	}
	def, rdma, tcp := byMode["Default"], byMode["RDMA"], byMode["TCP"]
	if rdma.Throughput < def.Throughput*0.97 {
		t.Errorf("RDMA should not dent the donor: %.0f vs default %.0f", rdma.Throughput, def.Throughput)
	}
	if tcp.Throughput > def.Throughput*0.97 {
		t.Errorf("TCP should dent the donor by ~10%%: %.0f vs default %.0f", tcp.Throughput, def.Throughput)
	}
	if tcp.P99Lat < def.P99Lat {
		t.Errorf("TCP should inflate the donor's tail: %v vs %v", tcp.P99Lat, def.P99Lat)
	}
}

// TestFig16PrimingShapes checks Figure 16: priming is orders of
// magnitude faster than workload warm-up, and a primed pool's tails are
// no worse than cold.
func TestFig16PrimingShapes(t *testing.T) {
	prm := Fig16Geometry(testing.Short())
	prm.BPSizesMB = []int64{10, 20}
	res, err := RunFig16Priming(1, prm)
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range res {
		t.Logf("bp=%dMB warmup=%v prime=%v cold-p95=%v primed-p95=%v",
			r.BPBytes>>20, r.WarmupTime, r.PrimeTime, r.ColdP95, r.PrimedP95)
		if r.PrimeTime*50 > r.WarmupTime {
			t.Errorf("prime (%v) should be orders of magnitude under warm-up (%v)", r.PrimeTime, r.WarmupTime)
		}
		if r.PrimedP95 > r.ColdP95 {
			t.Errorf("primed p95 (%v) should not exceed cold p95 (%v)", r.PrimedP95, r.ColdP95)
		}
	}
	// The bigger pool must show a clear tail win (Figure 16b's 4-10x).
	big := res[len(res)-1]
	if float64(big.ColdP95) < 3*float64(big.PrimedP95) {
		t.Errorf("at %dMB: cold p95 %v should be >=3x primed %v", big.BPBytes>>20, big.ColdP95, big.PrimedP95)
	}
}

// TestFig24MemorySweepConverges checks Figure 24: Custom's advantage
// shrinks as local memory grows and vanishes when the database fits.
func TestFig24MemorySweepConverges(t *testing.T) {
	fprm := Fig24Geometry(testing.Short()) // the assertions only read the 16 MB and 128 MB endpoints
	pts, err := RunFig24LocalMemorySweep(1, fprm)
	if err != nil {
		t.Fatal(err)
	}
	ratios := make(map[int64]float64)
	thr := make(map[int64]map[Design]float64)
	for _, pt := range pts {
		if thr[pt.LocalMemBytes] == nil {
			thr[pt.LocalMemBytes] = make(map[Design]float64)
		}
		thr[pt.LocalMemBytes][pt.Design] = pt.Throughput
	}
	for mem, m := range thr {
		ratios[mem] = m[DesignCustom] / m[DesignHDDSSD]
		t.Logf("local=%dMB: custom=%.0f hddssd=%.0f ratio=%.2f", mem>>20, m[DesignCustom], m[DesignHDDSSD], ratios[mem])
	}
	small, large := ratios[16<<20], ratios[128<<20]
	if small < 1.5 {
		t.Errorf("at 16MB local memory Custom should win clearly (ratio %.2f)", small)
	}
	if large > 1.25 {
		t.Errorf("at 128MB local memory the designs should converge (ratio %.2f)", large)
	}
	if large >= small {
		t.Errorf("advantage should shrink with memory: %.2f -> %.2f", small, large)
	}
}

// TestFig25AggregateScales checks Figure 25: aggregate throughput grows
// with DB-server count until the shared memory server's NIC saturates.
func TestFig25AggregateScales(t *testing.T) {
	prm := Fig25Geometry(testing.Short())
	pts, err := RunFig25MultiDBRangeScan(1, prm)
	if err != nil {
		t.Fatal(err)
	}
	for _, pt := range pts {
		t.Logf("dbs=%d agg=%.0f q/s lat=%v", pt.DBServers, pt.Throughput, pt.MeanLat)
	}
	if pts[1].Throughput < pts[0].Throughput*1.5 {
		t.Errorf("2 DBs should scale aggregate throughput: %.0f -> %.0f", pts[0].Throughput, pts[1].Throughput)
	}
	if pts[len(pts)-1].Throughput < pts[0].Throughput*2 {
		t.Errorf("8 DBs should beat 1 DB clearly")
	}
}

// TestAblations checks Table 1: the chosen design choices beat the
// rejected alternatives by the margins the paper cites.
func TestAblations(t *testing.T) {
	a, err := RunAblationSyncVsAsync(1)
	if err != nil {
		t.Fatal(err)
	}
	t.Logf("sync=%v async=%v (%.2fx)", a.ChosenLat, a.AltLat, a.Factor())
	if a.Factor() < 1.05 {
		t.Errorf("async should be measurably slower than sync spin: %.2fx", a.Factor())
	}
	b, err := RunAblationRegistration(1)
	if err != nil {
		t.Fatal(err)
	}
	t.Logf("staging=%v on-demand=%v (%.2fx)", b.ChosenLat, b.AltLat, b.Factor())
	if b.Factor() < 1.5 {
		t.Errorf("on-demand registration should cost far more than staging memcpy: %.2fx", b.Factor())
	}
	c, err := RunAblationEncryption(1)
	if err != nil {
		t.Fatal(err)
	}
	t.Logf("plain=%v encrypted=%v (%.2fx)", c.ChosenLat, c.AltLat, c.Factor())
	if c.Factor() < 1.1 || c.Factor() > 3 {
		t.Errorf("encryption overhead out of band: %.2fx", c.Factor())
	}
	d, err := RunAblationAdaptive(1)
	if err != nil {
		t.Fatal(err)
	}
	t.Logf("adaptive=%v async=%v (%.2fx)", d.ChosenLat, d.AltLat, d.Factor())
	if d.Factor() < 1.05 {
		t.Errorf("adaptive should beat always-async on 8K transfers: %.2fx", d.Factor())
	}
}
