// Package page implements the engine's 8 KiB slotted page, the unit of
// buffer-pool caching, disk I/O, and RDMA transfer throughout the system
// (the paper's transfers are sized around this same 8 K page).
//
// Layout:
//
//	[ header 32 B | record heap (grows up) ... free ... slot dir (grows down) ]
//
// The slot directory holds 4-byte entries (offset:2, length:2) addressed
// from the end of the page. Insert appends a slot; InsertAt puts one at
// a given index and shifts the slots at and above it up by one, so a
// caller can keep the directory in its own order (the B-tree keeps it in
// key order). Either way the record bytes are appended to the heap.
// Delete sets a flag bit in the slot's offset: the slot keeps its place
// and its record stays readable through Slot until Compact, which drops
// dead slots and keeps the order of the rest. A CRC-32C (Castagnoli)
// checksum over the payload detects torn images.
package page

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
)

// Size is the fixed page size.
const Size = 8192

// HeaderSize is the fixed header length.
const HeaderSize = 32

const slotSize = 4

// deadBit marks a deleted slot's offset; offsets stay below Size.
const deadBit = 0x8000

// Type tags what a page stores.
type Type uint8

// Page types.
const (
	TypeFree Type = iota
	TypeHeap
	TypeBTreeLeaf
	TypeBTreeInner
	TypeMeta
)

// header field offsets
const (
	offPageNo   = 0  // uint64
	offLSN      = 8  // uint64
	offNSlots   = 16 // uint16
	offFreeOff  = 18 // uint16: start of free space (end of record heap)
	offType     = 20 // uint8
	offNextPage = 21 // 7-byte little-endian page link, bytes [21,28)
	offCk       = 28 // uint32 checksum, bytes [28,32)
)

// Page is an 8 KiB buffer with typed accessors. It aliases, not copies,
// the underlying frame memory.
type Page struct {
	b []byte
}

// ErrPageFull is returned when a record does not fit.
var ErrPageFull = errors.New("page: full")

// ErrBadSlot is returned for out-of-range or deleted slots.
var ErrBadSlot = errors.New("page: bad slot")

// ErrChecksum is returned when Verify finds a corrupt image.
var ErrChecksum = errors.New("page: checksum mismatch")

// Wrap views an existing 8 KiB buffer as a Page.
func Wrap(b []byte) *Page {
	if len(b) != Size {
		panic(fmt.Sprintf("page: buffer is %d bytes, want %d", len(b), Size))
	}
	return &Page{b: b}
}

// Init formats the buffer as an empty page.
func (pg *Page) Init(pageNo uint64, t Type) {
	for i := range pg.b[:HeaderSize] {
		pg.b[i] = 0
	}
	binary.LittleEndian.PutUint64(pg.b[offPageNo:], pageNo)
	pg.b[offType] = byte(t)
	pg.setNSlots(0)
	pg.setFreeOff(HeaderSize)
	pg.SetNext(0)
}

// Bytes returns the underlying buffer.
func (pg *Page) Bytes() []byte { return pg.b }

// PageNo returns the page number stamped at Init.
func (pg *Page) PageNo() uint64 { return binary.LittleEndian.Uint64(pg.b[offPageNo:]) }

// LSN returns the page LSN.
func (pg *Page) LSN() uint64 { return binary.LittleEndian.Uint64(pg.b[offLSN:]) }

// SetLSN stamps the page LSN.
func (pg *Page) SetLSN(lsn uint64) { binary.LittleEndian.PutUint64(pg.b[offLSN:], lsn) }

// PageType returns the type tag.
func (pg *Page) PageType() Type { return Type(pg.b[offType]) }

// Next returns the next-page link (leaf chains), 0 when none.
func (pg *Page) Next() uint64 {
	var v uint64
	for i := 0; i < 7; i++ {
		v |= uint64(pg.b[offNextPage+i]) << (8 * i)
	}
	return v
}

// SetNext stores the next-page link (56 bits are plenty).
func (pg *Page) SetNext(n uint64) {
	for i := 0; i < 7; i++ {
		pg.b[offNextPage+i] = byte(n >> (8 * i))
	}
}

func (pg *Page) nSlots() int        { return int(binary.LittleEndian.Uint16(pg.b[offNSlots:])) }
func (pg *Page) setNSlots(n int)    { binary.LittleEndian.PutUint16(pg.b[offNSlots:], uint16(n)) }
func (pg *Page) freeOff() int       { return int(binary.LittleEndian.Uint16(pg.b[offFreeOff:])) }
func (pg *Page) setFreeOff(off int) { binary.LittleEndian.PutUint16(pg.b[offFreeOff:], uint16(off)) }

func (pg *Page) slotPos(i int) int { return Size - (i+1)*slotSize }

func (pg *Page) slot(i int) (off, length int) {
	p := pg.slotPos(i)
	return int(binary.LittleEndian.Uint16(pg.b[p:])), int(binary.LittleEndian.Uint16(pg.b[p+2:]))
}

func (pg *Page) setSlot(i, off, length int) {
	p := pg.slotPos(i)
	binary.LittleEndian.PutUint16(pg.b[p:], uint16(off))
	binary.LittleEndian.PutUint16(pg.b[p+2:], uint16(length))
}

// NumSlots returns the slot-directory length (including dead slots).
func (pg *Page) NumSlots() int { return pg.nSlots() }

// FreeSpace returns the bytes available for one more record (accounting
// for its slot entry).
func (pg *Page) FreeSpace() int {
	free := Size - pg.nSlots()*slotSize - pg.freeOff() - slotSize
	if free < 0 {
		return 0
	}
	return free
}

// Insert appends a record and returns its slot index.
func (pg *Page) Insert(rec []byte) (int, error) {
	i := pg.nSlots()
	return i, pg.InsertAt(i, rec)
}

// InsertAt stores a record as slot i (0 <= i <= NumSlots), shifting the
// slots at i and above up by one. The record bytes are appended exactly
// as Insert appends them, so free space is the same either way.
func (pg *Page) InsertAt(i int, rec []byte) error {
	n := pg.nSlots()
	if i < 0 || i > n {
		return ErrBadSlot
	}
	if len(rec) > pg.FreeSpace() {
		return ErrPageFull
	}
	off := pg.freeOff()
	copy(pg.b[off:], rec)
	copy(pg.b[pg.slotPos(n):], pg.b[pg.slotPos(n-1):pg.slotPos(i-1)])
	pg.setNSlots(n + 1)
	pg.setSlot(i, off, len(rec))
	pg.setFreeOff(off + len(rec))
	return nil
}

// Get returns the record in slot i, aliasing page memory.
func (pg *Page) Get(i int) ([]byte, error) {
	if i < 0 || i >= pg.nSlots() {
		return nil, ErrBadSlot
	}
	if rec, live := pg.Slot(i); live {
		return rec, nil
	}
	return nil, ErrBadSlot
}

// Slot returns the record in slot i (which must be in range), aliasing
// page memory, and whether the slot is live. A dead slot's record is the
// one it held when deleted.
func (pg *Page) Slot(i int) (rec []byte, live bool) {
	off, length := pg.slot(i)
	start := off &^ deadBit
	return pg.b[start : start+length], off&deadBit == 0
}

// Delete marks slot i dead. Space is not compacted; Compact reclaims it.
func (pg *Page) Delete(i int) error {
	if i < 0 || i >= pg.nSlots() {
		return ErrBadSlot
	}
	off, length := pg.slot(i)
	if off&deadBit != 0 {
		return ErrBadSlot
	}
	pg.setSlot(i, off|deadBit, length)
	return nil
}

// Update replaces the record in slot i. If the new image fits in place it
// is overwritten; otherwise it is re-appended (requires free space).
func (pg *Page) Update(i int, rec []byte) error {
	if i < 0 || i >= pg.nSlots() {
		return ErrBadSlot
	}
	off, length := pg.slot(i)
	if off&deadBit != 0 {
		return ErrBadSlot
	}
	if len(rec) <= length {
		copy(pg.b[off:], rec)
		pg.setSlot(i, off, len(rec))
		return nil
	}
	need := len(rec) + slotSize // conservative: no slot added, but reuse FreeSpace math
	if pg.FreeSpace()+slotSize < need {
		return ErrPageFull
	}
	noff := pg.freeOff()
	copy(pg.b[noff:], rec)
	pg.setSlot(i, noff, len(rec))
	pg.setFreeOff(noff + len(rec))
	return nil
}

// Live returns the number of live (non-deleted) slots.
func (pg *Page) Live() int {
	n := 0
	for i := 0; i < pg.nSlots(); i++ {
		if off, _ := pg.slot(i); off&deadBit == 0 {
			n++
		}
	}
	return n
}

// Compact rewrites the record heap dropping dead slots. The live slots
// keep their order, but their indexes shift down past the dropped ones;
// callers must not keep slot references across Compact.
func (pg *Page) Compact() {
	type rec struct {
		data []byte
	}
	var live []rec
	for i := 0; i < pg.nSlots(); i++ {
		if r, ok := pg.Slot(i); ok {
			live = append(live, rec{data: append([]byte(nil), r...)})
		}
	}
	pageNo, lsn, t, next := pg.PageNo(), pg.LSN(), pg.PageType(), pg.Next()
	pg.Init(pageNo, t)
	pg.SetLSN(lsn)
	pg.SetNext(next)
	for _, r := range live {
		if _, err := pg.Insert(r.data); err != nil {
			panic("page: compact lost records: " + err.Error())
		}
	}
}

var castagnoli = crc32.MakeTable(crc32.Castagnoli)

// computeChecksum covers everything except the checksum field itself.
func (pg *Page) computeChecksum() uint32 {
	crc := crc32.Update(0, castagnoli, pg.b[:offCk])
	return crc32.Update(crc, castagnoli, pg.b[offCk+4:])
}

// Seal stamps the checksum; call before writing the page out.
func (pg *Page) Seal() {
	binary.LittleEndian.PutUint32(pg.b[offCk:], pg.computeChecksum())
}

// Verify checks the checksum stamped by Seal.
func (pg *Page) Verify() error {
	want := binary.LittleEndian.Uint32(pg.b[offCk:])
	if pg.computeChecksum() != want {
		return ErrChecksum
	}
	return nil
}
