// Package testkit holds what the simulation tests of several packages share.
package testkit

import (
	"errors"
	"fmt"
	"os"
	"runtime"
	"testing"
	"time"

	"remotedb/internal/sim"
	"remotedb/internal/vfs"
)

// FixedFile is a file that does not grow, as a remote-memory file does
// not: a write past Limit fails with an error of no fault class.
type FixedFile struct {
	*vfs.MemFile
	Limit int64
}

// Size returns the fixed size.
func (f *FixedFile) Size() int64 { return f.Limit }

// WriteAt refuses writes that reach past the fixed size.
func (f *FixedFile) WriteAt(p *sim.Proc, b []byte, off int64) error {
	if off+int64(len(b)) > f.Limit {
		return errors.New("fixed file: access beyond file size")
	}
	return f.MemFile.WriteAt(p, b, off)
}

// Main is a TestMain body: it runs the package's tests and fails the
// package if goroutines outlive them — a test that builds a kernel and
// never closes it leaves every proc it parked behind.
func Main(m *testing.M) {
	base := runtime.NumGoroutine()
	code := m.Run()
	// The goroutine Close stops a proc on reports a few instructions
	// before the runtime retires it.
	for i := 0; i < 1000 && runtime.NumGoroutine() > base; i++ {
		time.Sleep(time.Millisecond)
	}
	if n := runtime.NumGoroutine(); n > base && code == 0 {
		buf := make([]byte, 1<<20)
		buf = buf[:runtime.Stack(buf, true)]
		fmt.Fprintf(os.Stderr, "%d goroutines outlive the tests (%d before them):\n%s\n", n, base, buf)
		code = 1
	}
	os.Exit(code)
}
