// Benchmarks that regenerate every table and figure of the paper's
// evaluation: BenchmarkExperiments runs each entry of exp.Experiments as
// a sub-benchmark at full geometry, reports the entry's metrics
// (simulated throughput, latency, improvement factors) as custom
// benchmark metrics and checks the entry's claims. Absolute wall-clock
// ns/op is the cost of running the simulation, not a result.
//
// Run all of them with:
//
//	go test -run '^$' -bench Experiments -benchtime 1x
//
// or a single entry with e.g. -bench 'Experiments/fig14$'.
package remotedb_test

import (
	"io"
	"strings"
	"testing"

	"remotedb/internal/exp"
)

// benchSeed is the seed the claims' bounds were set at.
const benchSeed = 1

func BenchmarkExperiments(b *testing.B) {
	for _, e := range exp.Experiments {
		b.Run(e.Names[0], func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				rep := exp.NewReport(io.Discard)
				if err := e.Run(benchSeed, false, rep); err != nil {
					b.Fatal(err)
				}
				for name, v := range rep.Metrics {
					// A unit may not contain whitespace.
					b.ReportMetric(v, strings.Join(strings.Fields(name), "_"))
				}
				for _, c := range e.Claims {
					if err := c.Check(rep.Metrics); err != nil {
						b.Error(err)
					}
				}
			}
		})
	}
}
