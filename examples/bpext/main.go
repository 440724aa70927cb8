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
	"remotedb/internal/exp"
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

	// The pool's default eviction policy is cost-aware GDSF; the legacy
	// clock sweep is one option away for A/B runs.
	fmt.Println("\nSame workload on the remote design, pool configuration A/B:")
	configs := []struct {
		name string
		opts []remotedb.Option
	}{
		{"GDSF (default)", nil},
		{"clock sweep", []remotedb.Option{remotedb.WithEviction(remotedb.EvictClock)}},
	}
	for _, c := range configs {
		c := c
		err := remotedb.RunInSim(1, 2*time.Hour, func(p *remotedb.Proc) error {
			bed, err := remotedb.NewTestBed(p, remotedb.DesignCustom, c.opts...)
			if err != nil {
				return err
			}
			w, err := workload.NewRangeScan(p, bed.Eng, workload.DefaultRangeScan())
			if err != nil {
				return err
			}
			res := w.Run(p, 500*time.Millisecond, time.Second)
			st := bed.Eng.BP.Stats
			misses := st.ExtHits + st.DiskReads
			hitRate := float64(st.Hits) / float64(st.Hits+misses) * 100
			fmt.Printf("  %-29s %8.0f queries/s  hit rate %5.1f%%  dirty evicts %d\n",
				c.name, res.Throughput(), hitRate, st.EvictDirty)
			bed.Close(p)
			return nil
		})
		if err != nil {
			log.Fatalf("%s: %v", c.name, err)
		}
	}
	_ = exp.DesignHDD // keep the experiment package linked for godoc discovery
}
