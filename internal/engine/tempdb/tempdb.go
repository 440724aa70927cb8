// Package tempdb manages the engine's spill space — the paper's
// scenario (ii). Hash joins and external sorts write runs and partitions
// through SpillFiles, which buffer into large sequential blocks (512 KiB,
// the I/O size of the paper's analytics traces) over whatever vfs.File
// TempDB is placed on: the HDD array, the SSD, or a remote-memory file.
package tempdb

import (
	"encoding/binary"
	"errors"
	"fmt"
	"slices"

	"remotedb/internal/fault"
	"remotedb/internal/sim"
	"remotedb/internal/vfs"
)

// BlockSize is the spill I/O unit.
const BlockSize = 512 << 10

// extentSize is the allocation granularity within the TempDB file.
const extentSize = 4 << 20

// TempDB allocates spill files within one backing file. Extents of
// finished spill files are recycled, so long query streams stay within
// the TempDB file's fixed capacity.
type TempDB struct {
	file    vfs.File
	nextExt int64
	free    []int64
	fixed   int64 // size of a file that refused to grow; 0 until a write falls off its end

	// bufs holds the block buffers no stream is using. A SpillFile takes
	// one to write through and gives it back at Flush; a Reader takes one
	// to read through and gives it back at end of stream. The list keeps
	// at most maxIdleBytes, so idle buffers cost a fixed amount of memory
	// however many streams a query opens at once.
	bufs      [][]byte
	idleBytes int

	BytesSpilled int64
	BytesRead    int64
}

// maxIdleBytes bounds the capacity TempDB.bufs may hold: one side of a
// grace hash join's default fan-out of eight partition files, each buffer
// a block plus the record that crossed its end. The probe side's files
// then write through the buffers the build side's gave back instead of
// growing their own from 16 KiB, and so does the next spilling join.
const maxIdleBytes = 8 * (BlockSize + BlockSize/16)

// ErrFull is returned by the spilling write that does not fit the TempDB
// file: the file has a fixed size (a remote-memory file) and every extent
// inside it is in use. It wraps fault.ErrUnavailable, the class of "no
// more remote memory", so the query fails classified and a later, smaller
// spill succeeds.
var ErrFull = fmt.Errorf("tempdb: spill does not fit the TempDB file (%w)", fault.ErrUnavailable)

// New creates a TempDB over file.
func New(file vfs.File) *TempDB { return &TempDB{file: file} }

// allocExtent reserves a contiguous extent and returns its base offset,
// preferring recycled extents.
func (t *TempDB) allocExtent() int64 {
	if n := len(t.free); n > 0 {
		off := t.free[n-1]
		t.free = t.free[:n-1]
		return off
	}
	off := t.nextExt
	t.nextExt += extentSize
	return off
}

// HighWater returns the highest byte offset ever allocated.
func (t *TempDB) HighWater() int64 { return t.nextExt }

// freeExtents takes a finished stream's extents back. An extent that
// reaches past the end of a file that does not grow is no extent: handing
// it out again would fail the next spill too.
func (t *TempDB) freeExtents(exts []int64) {
	for _, off := range exts {
		if t.fixed == 0 || off+extentSize <= t.fixed {
			t.free = append(t.free, off)
		}
	}
}

// takeBuf returns an empty buffer, a recycled one when there is one.
func (t *TempDB) takeBuf() []byte {
	n := len(t.bufs)
	if n == 0 {
		return nil
	}
	b := t.bufs[n-1]
	t.bufs = t.bufs[:n-1]
	t.idleBytes -= cap(b)
	return b[:0]
}

// giveBuf takes back a buffer nothing references any more.
func (t *TempDB) giveBuf(b []byte) {
	if cap(b) == 0 || t.idleBytes+cap(b) > maxIdleBytes {
		return
	}
	t.bufs = append(t.bufs, b)
	t.idleBytes += cap(b)
}

// write is the spilling write. A write the file refuses that reaches past
// the file's size is a full TempDB: a file that grows would have taken it.
func (t *TempDB) write(p *sim.Proc, name string, b []byte, off int64) error {
	err := t.file.WriteAt(p, b, off)
	if err == nil {
		t.BytesSpilled += int64(len(b))
		return nil
	}
	if end, size := off+int64(len(b)), t.file.Size(); end > size {
		t.fixed = size
		return fmt.Errorf("%w: %s needs byte %d of %d: %w", ErrFull, name, end, size, err)
	}
	return err
}

// SpillFile is one append-only spill stream holding length-prefixed
// records, written in BlockSize chunks across chained extents.
type SpillFile struct {
	t       *TempDB
	name    string
	extents []int64
	size    int64 // logical bytes written
	wbuf    []byte

	Records int64
}

// NewFile opens a fresh spill stream.
func (t *TempDB) NewFile(name string) *SpillFile {
	return &SpillFile{t: t, name: name}
}

// Append adds one record (length-prefixed internally).
func (s *SpillFile) Append(p *sim.Proc, rec []byte) error {
	if s.wbuf == nil {
		s.wbuf = s.t.takeBuf()
	}
	if need := len(s.wbuf) + 4 + len(rec); need > cap(s.wbuf) {
		// Double from 16 KiB up to the most a block's tail plus this record
		// can need: append's 1.25× steps copy a buffer on its way to a block
		// several times over, and most partition files never get there.
		c := max(2*cap(s.wbuf), 16<<10)
		for c < need {
			c *= 2
		}
		s.wbuf = append(make([]byte, 0, min(c, BlockSize+4+len(rec))), s.wbuf...)
	}
	s.wbuf = binary.LittleEndian.AppendUint32(s.wbuf, uint32(len(rec)))
	s.wbuf = append(s.wbuf, rec...)
	s.Records++
	if len(s.wbuf) < BlockSize {
		return nil
	}
	n := len(s.wbuf) / BlockSize * BlockSize
	for off := 0; off < n; off += BlockSize {
		if err := s.flushBlock(p, s.wbuf[off:off+BlockSize]); err != nil {
			return err
		}
	}
	// Move the tail down: re-slicing would give the capacity away.
	s.wbuf = s.wbuf[:copy(s.wbuf, s.wbuf[n:])]
	return nil
}

// Flush writes any buffered tail; call once after the last Append.
func (s *SpillFile) Flush(p *sim.Proc) error {
	if len(s.wbuf) == 0 {
		return nil
	}
	err := s.flushBlock(p, s.wbuf)
	s.dropBuf()
	return err
}

// dropBuf hands the write buffer back to the TempDB.
func (s *SpillFile) dropBuf() {
	s.t.giveBuf(s.wbuf)
	s.wbuf = nil
}

// flushBlock maps the next logical range onto extents and writes it. A
// stream whose write fails gives its extents back: it cannot be read, and
// the next query needs the space.
func (s *SpillFile) flushBlock(p *sim.Proc, b []byte) error {
	off := s.size
	for len(b) > 0 {
		extIdx := int(off / extentSize)
		within := off % extentSize
		for extIdx >= len(s.extents) {
			s.extents = append(s.extents, s.t.allocExtent())
		}
		n := extentSize - within
		if n > int64(len(b)) {
			n = int64(len(b))
		}
		if err := s.t.write(p, s.name, b[:n], s.extents[extIdx]+within); err != nil {
			s.Release()
			return err
		}
		off += n
		b = b[n:]
	}
	s.size = off
	return nil
}

// Release returns the stream's extents to the TempDB free list. The
// stream must not be read afterwards.
func (s *SpillFile) Release() {
	s.t.freeExtents(s.extents)
	s.extents = nil
	s.size = 0
	s.dropBuf()
}

// Reader iterates the spill stream's records sequentially, reading
// BlockSize chunks into a buffer it borrows from the TempDB until the end
// of the stream. A record returned by Next aliases that buffer and is
// valid only until the next call to Next.
type Reader struct {
	s    *SpillFile
	off  int64
	buf  []byte
	bpos int
}

// ErrTruncated indicates a record crosses the end of the stream.
var ErrTruncated = errors.New("tempdb: truncated spill stream")

// NewReader opens the stream for sequential reads. The stream must be
// Flushed first.
func (s *SpillFile) NewReader() *Reader {
	if len(s.wbuf) != 0 {
		panic(fmt.Sprintf("tempdb: %s read before Flush", s.name))
	}
	return &Reader{s: s}
}

// fill ensures at least n bytes are buffered (or the stream is exhausted).
func (r *Reader) fill(p *sim.Proc, n int) error {
	for len(r.buf)-r.bpos < n {
		if r.off >= r.s.size {
			return ErrTruncated
		}
		take := int64(BlockSize)
		if r.off+take > r.s.size {
			take = r.s.size - r.off
		}
		// Move the unread tail down and read the chunk in behind it.
		if r.buf == nil {
			r.buf = r.s.t.takeBuf()
		}
		tail := copy(r.buf, r.buf[r.bpos:])
		r.bpos = 0
		r.buf = slices.Grow(r.buf[:tail], int(take))
		chunk := r.buf[tail : tail+int(take)]
		// Map logical offset onto extents (reads may straddle them).
		read := int64(0)
		for read < take {
			extIdx := int((r.off + read) / extentSize)
			within := (r.off + read) % extentSize
			m := extentSize - within
			if m > take-read {
				m = take - read
			}
			if err := r.s.t.file.ReadAt(p, chunk[read:read+m], r.s.extents[extIdx]+within); err != nil {
				return err
			}
			read += m
		}
		r.s.t.BytesRead += take
		r.off += take
		r.buf = r.buf[:tail+int(take)]
	}
	return nil
}

// Next returns the next record, or ok=false at end of stream.
func (r *Reader) Next(p *sim.Proc) ([]byte, bool, error) {
	if len(r.buf)-r.bpos == 0 && r.off >= r.s.size {
		// End of stream: nothing returned earlier is valid any more.
		r.s.t.giveBuf(r.buf)
		r.buf, r.bpos = nil, 0
		return nil, false, nil
	}
	if err := r.fill(p, 4); err != nil {
		if err == ErrTruncated && len(r.buf)-r.bpos == 0 {
			return nil, false, nil
		}
		return nil, false, err
	}
	n := int(binary.LittleEndian.Uint32(r.buf[r.bpos:]))
	r.bpos += 4
	if err := r.fill(p, n); err != nil {
		return nil, false, err
	}
	rec := r.buf[r.bpos : r.bpos+n]
	r.bpos += n
	return rec, true, nil
}

var _ = vfs.ErrClosed // keep the vfs dependency explicit for godoc linking
