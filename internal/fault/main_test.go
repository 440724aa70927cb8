// TestMain lives in the external test package because testkit imports
// fault (through vfs); the package's own tests share its binary and its
// leak check.
package fault_test

import (
	"testing"

	"remotedb/internal/testkit"
)

func TestMain(m *testing.M) { testkit.Main(m) }
