package exec

import (
	"testing"

	"remotedb/internal/engine/row"
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

// collect drains an operator tree into a slice.
func collect(c *Ctx, op Op) ([]row.Tuple, error) {
	r, err := Open(c, op)
	if err != nil {
		return nil, err
	}
	var out []row.Tuple
	for {
		t, ok, err := r.Next()
		if err != nil || !ok {
			if cerr := r.Close(); err == nil {
				err = cerr
			}
			return out, err
		}
		out = append(out, t)
	}
}
