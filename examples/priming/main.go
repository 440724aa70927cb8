// Buffer-pool priming (the paper's scenario iv, Section 3.4).
//
// A planned primary-secondary swap: the old primary's warm buffer pool
// is serialized, pushed over RDMA at wire speed, and installed into the
// new primary — versus letting the workload warm the pool one cache miss
// at a time (Figure 16).
//
// Run with: go run ./examples/priming
package main

import (
	"fmt"
	"log"
	"time"

	"remotedb"
	"remotedb/internal/exp"
)

func main() {
	prm := exp.Fig16Geometry(false)
	prm.BPSizesMB = []int64{10, 20}
	res, err := exp.RunFig16Priming(1, prm)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println("Planned primary-secondary swap (hotspot RangeScan, 100 MiB database):")
	for _, r := range res {
		speedup := float64(r.WarmupTime) / float64(r.PrimeTime)
		fmt.Printf("  %2d MiB pool: workload warm-up %8v | prime %8v (%4.0fx faster; %d pages, wire %v)\n",
			r.BPBytes>>20, r.WarmupTime.Round(time.Millisecond), r.PrimeTime.Round(time.Millisecond),
			speedup, r.PagesPrimed, r.TransferTime.Round(time.Millisecond))
		fmt.Printf("              p95 scan latency: cold %v -> primed %v\n",
			r.ColdP95.Round(time.Millisecond), r.PrimedP95.Round(time.Millisecond))
	}
	fmt.Println("\nPriming beats workload warm-up by two to three orders of magnitude, and")
	fmt.Println("the primed secondary's p95 is a fraction of a cold node's (Figure 16).")
	_ = remotedb.DesignCustom
}
