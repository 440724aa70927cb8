// TestMain lives in the external test package because testkit imports
// vfs, which imports disk; the package's own tests share its binary and
// its leak check.
package disk_test

import (
	"testing"

	"remotedb/internal/testkit"
)

func TestMain(m *testing.M) { testkit.Main(m) }
