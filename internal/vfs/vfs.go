// Package vfs defines the file abstraction every storage consumer in the
// engine goes through — data files, the write-ahead log, TempDB, the
// buffer-pool extension, and the semantic cache all read and write
// vfs.File. Binding a consumer to an HDD-backed, SSD-backed, local-RAM,
// or remote-memory file is how the evaluated designs of Table 5 are
// assembled without touching engine code, which is exactly the paper's
// argument for the lightweight file API.
package vfs

import (
	"fmt"

	"remotedb/internal/fault"
	"remotedb/internal/hw/disk"
	"remotedb/internal/sim"
)

// File is a time-charged random-access file in simulation space.
type File interface {
	// Name identifies the file in stats output.
	Name() string
	// ReadAt reads len(b) bytes at off, charging device time to p.
	ReadAt(p *sim.Proc, b []byte, off int64) error
	// WriteAt writes b at off, growing the file if needed.
	WriteAt(p *sim.Proc, b []byte, off int64) error
	// Size returns the current file size.
	Size() int64
	// Close releases resources; the file must not be used afterwards.
	Close(p *sim.Proc) error
}

// ErrClosed is returned on access to a closed file. It wraps
// fault.ErrClosed so errors.Is classification works through the facade.
var ErrClosed = fmt.Errorf("vfs: file is closed (%w)", fault.ErrClosed)

// ErrUnavailable is returned when a file's backing store is gone (a
// remote-memory file whose lease was revoked). Consumers treat it as a
// signal to fall back, never as corruption — the paper's best-effort
// fault-tolerance contract. It wraps fault.ErrUnavailable.
var ErrUnavailable = fmt.Errorf("vfs: backing store unavailable (%w)", fault.ErrUnavailable)

// ErrCorrupt is returned when a file's stored bytes failed integrity
// verification (checksum or generation mismatch) and no healthy replica
// could serve the access. The read buffer contents are unspecified and
// must not be used; consumers fall back as for ErrUnavailable. It wraps
// fault.ErrCorrupt.
var ErrCorrupt = fmt.Errorf("vfs: data failed integrity verification (%w)", fault.ErrCorrupt)

// chunkSize is the allocation granularity of the sparse in-memory store.
const chunkSize = 64 << 10

// sparse is a chunked byte store so multi-gigabyte simulated files only
// allocate the regions actually touched.
type sparse struct {
	chunks map[int64][]byte
	size   int64
}

func newSparse() *sparse { return &sparse{chunks: make(map[int64][]byte)} }

func (s *sparse) readAt(b []byte, off int64) {
	for len(b) > 0 {
		ci := off / chunkSize
		co := off % chunkSize
		n := chunkSize - co
		if n > int64(len(b)) {
			n = int64(len(b))
		}
		if c, ok := s.chunks[ci]; ok {
			copy(b[:n], c[co:co+n])
		} else {
			for i := int64(0); i < n; i++ {
				b[i] = 0
			}
		}
		b = b[n:]
		off += n
	}
}

func (s *sparse) writeAt(b []byte, off int64) {
	if end := off + int64(len(b)); end > s.size {
		s.size = end
	}
	for len(b) > 0 {
		ci := off / chunkSize
		co := off % chunkSize
		n := chunkSize - co
		if n > int64(len(b)) {
			n = int64(len(b))
		}
		c, ok := s.chunks[ci]
		if !ok {
			c = make([]byte, chunkSize)
			s.chunks[ci] = c
		}
		copy(c[co:co+n], b[:n])
		b = b[n:]
		off += n
	}
}

// MemFile is a local-RAM file: contents in memory, no time charged. It is
// the storage of the Local Memory design and of in-memory serialization
// scratch space.
type MemFile struct {
	name   string
	data   *sparse
	closed bool
}

// NewMemFile creates an empty local-RAM file.
func NewMemFile(name string) *MemFile {
	return &MemFile{name: name, data: newSparse()}
}

// Name returns the file name.
func (f *MemFile) Name() string { return f.name }

// ReadAt copies bytes out; no time is charged.
func (f *MemFile) ReadAt(p *sim.Proc, b []byte, off int64) error {
	if f.closed {
		return ErrClosed
	}
	if off < 0 {
		return fmt.Errorf("vfs: negative offset %d", off)
	}
	f.data.readAt(b, off)
	return nil
}

// WriteAt copies bytes in; no time is charged.
func (f *MemFile) WriteAt(p *sim.Proc, b []byte, off int64) error {
	if f.closed {
		return ErrClosed
	}
	if off < 0 {
		return fmt.Errorf("vfs: negative offset %d", off)
	}
	f.data.writeAt(b, off)
	return nil
}

// Size returns the high-water mark.
func (f *MemFile) Size() int64 { return f.data.size }

// Close marks the file closed.
func (f *MemFile) Close(p *sim.Proc) error {
	f.closed = true
	return nil
}

// DeviceFile stores bytes in memory but charges a disk model for every
// access: this is a file on the HDD array or the SSD.
type DeviceFile struct {
	name   string
	dev    disk.Device
	data   *sparse
	closed bool

	Reads, Writes      int64
	BytesRead, Written int64
}

// NewDeviceFile creates a file on dev.
func NewDeviceFile(name string, dev disk.Device) *DeviceFile {
	return &DeviceFile{name: name, dev: dev, data: newSparse()}
}

// Name returns the file name.
func (f *DeviceFile) Name() string { return f.name }

// ReadAt charges the device and copies bytes out: ReadAtV of one element.
func (f *DeviceFile) ReadAt(p *sim.Proc, b []byte, off int64) error {
	return f.deviceVec(p, []Vec{{Off: off, Buf: b}}, false)
}

// WriteAt charges the device and copies bytes in: WriteAtV of one element.
func (f *DeviceFile) WriteAt(p *sim.Proc, b []byte, off int64) error {
	return f.deviceVec(p, []Vec{{Off: off, Buf: b}}, true)
}

// Size returns the high-water mark.
func (f *DeviceFile) Size() int64 { return f.data.size }

// Close marks the file closed.
func (f *DeviceFile) Close(p *sim.Proc) error {
	f.closed = true
	return nil
}

// Every concrete file implements the interface the engine consumes.
var (
	_ File = (*MemFile)(nil)
	_ File = (*DeviceFile)(nil)
)
