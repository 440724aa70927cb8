// Remote hash tables: a spilled hash-join build side laid out as
// fixed-size buckets in the TempDB file, so the probe phase issues
// one-sided bucket reads instead of re-reading whole partitions. On a
// remote-memory TempDB each probe is a single RDMA-sized read of one
// bucket block (plus its overflow chain), which is the Farview-style
// alternative to the grace join's partition-at-a-time rebuild.
package tempdb

import (
	"encoding/binary"
	"fmt"

	"remotedb/internal/sim"
)

// Default hash-table geometry: enough buckets that modest build sides
// chain rarely, blocks sized to one page-class read.
const (
	DefaultHashBuckets     = 512
	DefaultHashBucketBytes = 4096
)

// HashTable is a bucketed record store in the TempDB file. Records are
// length-prefixed inside fixed-size bucket blocks (records never cross
// a block; zero length terminates a block), and a bucket that outgrows
// its block chains additional blocks. Writers buffer one open block
// per bucket, so build memory is buckets x bucketBytes regardless of
// table size — the property that lets a spilled join keep probing
// remotely instead of rebuilding partitions in memory.
type HashTable struct {
	t           *TempDB
	name        string
	buckets     int
	bucketBytes int
	chains      [][]int64 // flushed block offsets per bucket
	wbuf        [][]byte  // open block per bucket
	extents     []int64
	nextFree    int64
	flushed     bool

	Records int64
	Blocks  int64
	Probes  int64
}

// NewHashTable opens an empty hash table. buckets/bucketBytes <= 0 use
// the defaults.
func (t *TempDB) NewHashTable(name string, buckets, bucketBytes int) *HashTable {
	if buckets <= 0 {
		buckets = DefaultHashBuckets
	}
	if bucketBytes <= 0 {
		bucketBytes = DefaultHashBucketBytes
	}
	return &HashTable{
		t:           t,
		name:        name,
		buckets:     buckets,
		bucketBytes: bucketBytes,
		chains:      make([][]int64, buckets),
		wbuf:        make([][]byte, buckets),
	}
}

// Buckets returns the bucket count (for callers hashing keys).
func (h *HashTable) Buckets() int { return h.buckets }

// allocBlock reserves one bucketBytes-sized block in the backing file.
func (h *HashTable) allocBlock() int64 {
	if len(h.extents) == 0 || h.nextFree+int64(h.bucketBytes) > extentSize {
		h.extents = append(h.extents, h.t.allocExtent())
		h.nextFree = 0
	}
	off := h.extents[len(h.extents)-1] + h.nextFree
	h.nextFree += int64(h.bucketBytes)
	return off
}

// Put appends one record to the bucket. rec must fit a block
// (bucketBytes-4 bytes).
func (h *HashTable) Put(p *sim.Proc, bucket int, rec []byte) error {
	if h.flushed {
		panic(fmt.Sprintf("tempdb: %s Put after Flush", h.name))
	}
	need := 4 + len(rec)
	if need > h.bucketBytes {
		return fmt.Errorf("tempdb: record of %d bytes exceeds %d-byte hash bucket", len(rec), h.bucketBytes)
	}
	b := bucket % h.buckets
	if len(h.wbuf[b])+need > h.bucketBytes {
		if err := h.flushBucket(p, b); err != nil {
			return err
		}
	}
	var hdr [4]byte
	binary.LittleEndian.PutUint32(hdr[:], uint32(len(rec)))
	h.wbuf[b] = append(h.wbuf[b], hdr[:]...)
	h.wbuf[b] = append(h.wbuf[b], rec...)
	h.Records++
	return nil
}

// flushBucket writes the bucket's open block (zero-padded to a full
// block, so recycled-extent residue never reaches the parser) and
// chains it.
func (h *HashTable) flushBucket(p *sim.Proc, b int) error {
	if len(h.wbuf[b]) == 0 {
		return nil
	}
	block := make([]byte, h.bucketBytes)
	copy(block, h.wbuf[b])
	off := h.allocBlock()
	if err := h.t.write(p, h.name, block, off); err != nil {
		return err
	}
	h.chains[b] = append(h.chains[b], off)
	h.Blocks++
	h.wbuf[b] = h.wbuf[b][:0]
	return nil
}

// Flush writes every open block; call once after the last Put.
func (h *HashTable) Flush(p *sim.Proc) error {
	for b := range h.wbuf {
		if err := h.flushBucket(p, b); err != nil {
			return err
		}
	}
	h.flushed = true
	return nil
}

// Probe reads the bucket's chain — one one-sided read per block — and
// calls fn for every record in it. Callers filter by exact key; the
// bucket only bounds the candidates.
func (h *HashTable) Probe(p *sim.Proc, bucket int, fn func(rec []byte) error) error {
	if !h.flushed {
		panic(fmt.Sprintf("tempdb: %s probed before Flush", h.name))
	}
	h.Probes++
	b := bucket % h.buckets
	block := make([]byte, h.bucketBytes)
	for _, off := range h.chains[b] {
		if err := h.t.file.ReadAt(p, block, off); err != nil {
			return err
		}
		h.t.BytesRead += int64(h.bucketBytes)
		rest := block
		for len(rest) >= 4 {
			n := int(binary.LittleEndian.Uint32(rest))
			if n == 0 {
				break // zero length terminates the block
			}
			rest = rest[4:]
			if n > len(rest) {
				return fmt.Errorf("tempdb: %s bucket %d holds a truncated record", h.name, b)
			}
			if err := fn(rest[:n]); err != nil {
				return err
			}
			rest = rest[n:]
		}
	}
	return nil
}

// Release returns the table's extents to the TempDB free list. The
// table must not be probed afterwards.
func (h *HashTable) Release() {
	h.t.freeExtents(h.extents)
	h.extents = nil
	h.chains = nil
	h.wbuf = nil
}
