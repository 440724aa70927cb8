package exp

import (
	"testing"

	"remotedb/internal/testkit"
)

func TestMain(m *testing.M) { testkit.Main(m) }
