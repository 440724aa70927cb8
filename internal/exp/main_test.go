package exp

import (
	"runtime/debug"
	"testing"

	"remotedb/internal/testkit"
)

// TestMain runs the package under a 1.5 GiB soft memory limit. The
// experiment subtests run in parallel, and fig14's Hash+Sort bed alone
// peaks near 1.26 GB of resident memory at the default GC pace (2-core
// box), most of it garbage (the generated tables before their bulk
// load); the limit makes the collector reclaim it before a second bed's
// heap lands on top. The limit covers the Go heap only: donor MRs are
// mapped outside it (DESIGN §2), so the pages the beds have written
// into them come on top.
func TestMain(m *testing.M) {
	debug.SetMemoryLimit(3 << 29)
	testkit.Main(m)
}
