package exp

import (
	"runtime/debug"
	"testing"

	"remotedb/internal/testkit"
)

// TestMain runs the package under a 1.5 GiB soft memory limit. The
// experiment subtests run in parallel, and fig14's Hash+Sort bed alone
// peaks near 1.75 GB of resident memory at the default GC pace, most of
// it garbage (the generated tables before their bulk load); the limit
// makes the collector reclaim it before a second bed's heap lands on
// top.
func TestMain(m *testing.M) {
	debug.SetMemoryLimit(3 << 29)
	testkit.Main(m)
}
