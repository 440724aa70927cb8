package workload

import (
	"testing"

	"remotedb/internal/sim"
	"remotedb/internal/testkit"
)

// newKernel returns a kernel that is closed when the test ends, so the
// procs it parked end with it.
func newKernel(tb testing.TB, seed int64) *sim.Kernel {
	k := sim.New(seed)
	tb.Cleanup(k.Close)
	return k
}

func TestMain(m *testing.M) { testkit.Main(m) }
