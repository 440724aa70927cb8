package exp

import (
	"runtime"
	"testing"
	"time"
)

// Every experiment funnels through RunInSim, which closes its kernel: a
// bed's background procs (heartbeats, writers, flushers) unwind instead
// of staying parked and pinning the bed. Before Kernel.Close each quick
// parallel-scan bed left one goroutine and ~288 MB of heap behind.
func TestRunInSimReleasesBed(t *testing.T) {
	prm := ParScanGeometry(false)
	prm.SF = 0.02
	prm.DOPs = []int{1, 2}
	heapAfter := func() uint64 {
		runtime.GC()
		var m runtime.MemStats
		runtime.ReadMemStats(&m)
		return m.HeapInuse
	}
	base := runtime.NumGoroutine()
	var first uint64
	for i := 0; i < 4; i++ {
		if _, err := RunParScan(1, prm); err != nil {
			t.Fatal(err)
		}
		// The goroutine Close stops a proc on reports a few instructions
		// before the runtime retires it.
		for j := 0; j < 1000 && runtime.NumGoroutine() > base; j++ {
			time.Sleep(time.Millisecond)
		}
		if n := runtime.NumGoroutine(); n > base {
			t.Fatalf("bed %d: %d goroutines alive, %d before the first bed", i, n, base)
		}
		heap := heapAfter()
		t.Logf("bed %d: %d MB in use after GC", i, heap>>20)
		if i == 0 {
			first = heap
		} else if heap > first+32<<20 {
			t.Fatalf("bed %d: %d MB in use after GC, %d MB after the first bed: beds are not released", i, heap>>20, first>>20)
		}
	}
}
