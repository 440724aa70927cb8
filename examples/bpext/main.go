// Buffer-pool extension (the paper's scenario i, Section 3.1).
//
// A database whose working set exceeds local memory runs the RangeScan
// micro-benchmark under three of the paper's designs: HDD only, the SSD
// extension, and the remote-memory extension over RDMA (Custom). The
// throughput ordering of Figure 9 falls out.
//
// Run with: go run ./examples/bpext
package main

import (
	"fmt"
	"log"
	"time"

	"remotedb"
	"remotedb/internal/workload"
)

func main() {
	fmt.Println("RangeScan (read-only, 80 clients, data 122 MiB, local memory 32 MiB):")
	for _, d := range []remotedb.Design{remotedb.DesignHDD, remotedb.DesignHDDSSD, remotedb.DesignCustom, remotedb.DesignLocalMemory} {
		d := d
		err := remotedb.RunInSim(1, 2*time.Hour, func(p *remotedb.Proc) error {
			bed, err := remotedb.NewTestBed(p, d)
			if err != nil {
				return err
			}
			w, err := workload.NewRangeScan(p, bed.Eng, workload.DefaultRangeScan())
			if err != nil {
				return err
			}
			res := w.Run(p, 500*time.Millisecond, time.Second)
			fmt.Printf("  %-22s %8.0f queries/s  mean %v  (RAM hits %d, ext hits %d, disk reads %d)\n",
				d, res.Throughput(), res.Latency.Mean().Round(time.Microsecond),
				bed.Eng.BP.Stats.Hits, bed.Eng.BP.Stats.ExtHits, bed.Eng.BP.Stats.DiskReads)
			bed.Close(p)
			return nil
		})
		if err != nil {
			log.Fatalf("%v: %v", d, err)
		}
	}
	fmt.Println("\nThe remote extension turns disk-bound random reads into ~13µs RDMA")
	fmt.Println("fetches; throughput approaches the all-in-local-memory ceiling (Figure 9).")
}
