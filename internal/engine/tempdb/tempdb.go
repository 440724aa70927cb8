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

	// chunks holds the write chunks no SpillFile is buffering records
	// in, and blocks the block buffers no write or Reader is using.
	chunks, blocks bufList

	BytesSpilled int64
	BytesRead    int64
}

// chunkSize is the unit a SpillFile buffers records in: a stream holds
// only the chunks its unwritten records fill, not a block's worth.
const chunkSize = BlockSize / 8

// blockBufSize is a block buffer's size: a block plus room for the
// record a Reader moves down in front of the next block it reads.
const blockBufSize = BlockSize + BlockSize/16

// bufList recycles buffers of one size. It has no cap: a buffer is made
// only when none is idle, so the idle ones never outnumber the most that
// were in use at once, and every buffer made is used again.
type bufList struct {
	size    int
	idle    [][]byte
	made    int // buffers made
	maxHeld int // the most in use at once
}

// take returns an empty buffer of the list's size.
func (l *bufList) take() []byte {
	n := len(l.idle)
	if n == 0 {
		l.made++
		l.maxHeld = max(l.maxHeld, l.made)
		return make([]byte, 0, l.size)
	}
	b := l.idle[n-1]
	l.idle[n-1] = nil
	l.idle = l.idle[:n-1]
	l.maxHeld = max(l.maxHeld, l.made-len(l.idle))
	return b[:0]
}

// give takes back a buffer nothing references any more.
func (l *bufList) give(b []byte) {
	if b != nil {
		l.idle = append(l.idle, b)
	}
}

// give takes back a chunk or a block buffer, by its size.
func (t *TempDB) give(b []byte) {
	if cap(b) == chunkSize {
		t.chunks.give(b)
	} else {
		t.blocks.give(b)
	}
}

// ErrFull is returned by the spilling write that does not fit the TempDB
// file: the file has a fixed size (a remote-memory file) and every extent
// inside it is in use. It wraps fault.ErrUnavailable, the class of "no
// more remote memory", so the query fails classified and a later, smaller
// spill succeeds.
var ErrFull = fmt.Errorf("tempdb: spill does not fit the TempDB file (%w)", fault.ErrUnavailable)

// New creates a TempDB over file.
func New(file vfs.File) *TempDB {
	return &TempDB{file: file, chunks: bufList{size: chunkSize}, blocks: bufList{size: blockBufSize}}
}

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
// records, written in BlockSize blocks across chained extents. Records
// wait for their block in chunks taken from the TempDB; a record may
// span chunks.
type SpillFile struct {
	t       *TempDB
	name    string
	extents []int64
	size    int64    // logical bytes written
	chunks  [][]byte // unwritten records; every chunk full but the last
	r       Reader   // the stream's one reader
}

// NewFile opens a fresh spill stream.
func (t *TempDB) NewFile(name string) *SpillFile {
	return &SpillFile{t: t, name: name}
}

// Append adds one record (length-prefixed internally).
func (s *SpillFile) Append(p *sim.Proc, rec []byte) error {
	if last := len(s.chunks) - 1; last >= 0 && len(s.chunks[last])+4+len(rec) <= chunkSize {
		// The record fits the last chunk, as most do.
		c := binary.LittleEndian.AppendUint32(s.chunks[last], uint32(len(rec)))
		s.chunks[last] = append(c, rec...)
	} else {
		var n [4]byte
		binary.LittleEndian.PutUint32(n[:], uint32(len(rec)))
		s.buffer(n[:])
		s.buffer(rec)
	}
	for s.buffered() >= BlockSize {
		// A block is exactly the first BlockSize/chunkSize chunks.
		if err := s.writeOut(p, BlockSize); err != nil {
			return err
		}
	}
	return nil
}

// buffer copies b into the stream's chunks, taking more as they fill.
func (s *SpillFile) buffer(b []byte) {
	for len(b) > 0 {
		last := len(s.chunks) - 1
		if last < 0 || len(s.chunks[last]) == chunkSize {
			s.chunks = append(s.chunks, s.t.chunks.take())
			last++
		}
		c := s.chunks[last]
		n := min(len(b), chunkSize-len(c))
		s.chunks[last] = append(c, b[:n]...)
		b = b[n:]
	}
}

// buffered returns the bytes waiting in the stream's chunks.
func (s *SpillFile) buffered() int {
	n := len(s.chunks)
	if n == 0 {
		return 0
	}
	return (n-1)*chunkSize + len(s.chunks[n-1])
}

// writeOut writes the first n buffered bytes, whole chunks, in one
// write. A tail that fits one chunk is written from it; more is copied
// into a block buffer first, and its chunks go back at once.
func (s *SpillFile) writeOut(p *sim.Proc, n int) error {
	blk, k := s.chunks[0], 1
	if n > chunkSize {
		blk, k = s.t.blocks.take(), 0
		for len(blk) < n {
			blk = append(blk, s.chunks[k]...)
			s.t.chunks.give(s.chunks[k])
			k++
		}
	}
	rest := copy(s.chunks, s.chunks[k:])
	clear(s.chunks[rest:])
	s.chunks = s.chunks[:rest]
	err := s.flushBlock(p, blk)
	s.t.give(blk)
	return err
}

// Flush writes any buffered tail; call once after the last Append.
func (s *SpillFile) Flush(p *sim.Proc) error {
	if n := s.buffered(); n > 0 {
		return s.writeOut(p, n)
	}
	return nil
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

// Release returns the stream's extents to the TempDB free list, and its
// chunks and its reader's block buffer to the TempDB's buffer lists. The
// stream must not be read afterwards; it may be written again, as a new
// stream.
func (s *SpillFile) Release() {
	s.t.freeExtents(s.extents)
	s.extents = s.extents[:0]
	s.size = 0
	for _, c := range s.chunks {
		s.t.chunks.give(c)
	}
	clear(s.chunks)
	s.chunks = s.chunks[:0]
	s.r.drop()
}

// Reader iterates the spill stream's records sequentially, reading
// BlockSize blocks into a block buffer (a chunk, for a stream that fits
// one) it borrows from the TempDB until the end of the stream or the
// stream's Release. A record returned by Next aliases that buffer and is
// valid only until the next call to Next.
type Reader struct {
	s    *SpillFile
	off  int64
	buf  []byte
	bpos int
}

// ErrTruncated indicates a record crosses the end of the stream.
var ErrTruncated = errors.New("tempdb: truncated spill stream")

// NewReader opens the stream for sequential reads from its start. The
// stream must be Flushed first. A stream has one reader: NewReader
// rewinds the one it returned before.
func (s *SpillFile) NewReader() *Reader {
	if len(s.chunks) != 0 {
		panic(fmt.Sprintf("tempdb: %s read before Flush", s.name))
	}
	s.r.drop()
	s.r = Reader{s: s}
	return &s.r
}

// drop gives the buffer back: nothing returned earlier is valid any
// more.
func (r *Reader) drop() {
	if r.s != nil {
		r.s.t.give(r.buf)
	}
	r.buf, r.bpos = nil, 0
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
		// Move the unread tail down and read the block in behind it.
		if r.buf == nil {
			// A stream that fits one chunk is read through one: a merge
			// of many short runs holds a reader on each at once.
			if r.s.size <= chunkSize {
				r.buf = r.s.t.chunks.take()
			} else {
				r.buf = r.s.t.blocks.take()
			}
		}
		tail := copy(r.buf, r.buf[r.bpos:])
		r.bpos = 0
		r.buf = slices.Grow(r.buf[:tail], int(take))
		blk := r.buf[tail : tail+int(take)]
		// Map logical offset onto extents (reads may straddle them).
		read := int64(0)
		for read < take {
			extIdx := int((r.off + read) / extentSize)
			within := (r.off + read) % extentSize
			m := extentSize - within
			if m > take-read {
				m = take - read
			}
			if err := r.s.t.file.ReadAt(p, blk[read:read+m], r.s.extents[extIdx]+within); err != nil {
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
		r.drop()
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
