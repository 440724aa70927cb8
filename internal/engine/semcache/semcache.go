// Package semcache implements the paper's scenario (iii): a semantic
// cache integrated into the RDBMS. Redundant structures — materialized
// views and non-clustered index images — are built opportunistically,
// serialized as row files pinned in remote memory, and matched against
// query signatures at plan time. The cache is a separate memory broker
// from the buffer pool, so it never contends for the engine's local
// memory (Section 3.3).
//
// Because remote memory is best-effort, every cached structure also
// appends REDO records to the engine's WAL; after a remote-node failure
// the structure is rebuilt by replaying the log from its last checkpoint
// (Figure 26), or simply invalidated, per policy.
package semcache

import (
	"encoding/binary"
	"errors"
	"fmt"

	"remotedb/internal/engine/exec"
	"remotedb/internal/engine/row"
	"remotedb/internal/engine/txn"
	"remotedb/internal/sim"
	"remotedb/internal/vfs"
)

// Errors returned by the cache.
var (
	ErrNoEntry = errors.New("semcache: no entry for signature")
	ErrStale   = errors.New("semcache: entry invalidated")
)

// UpdatePolicy controls what happens to an entry when base data changes.
type UpdatePolicy int

// Policies from Section 3.3 of the paper.
const (
	// PolicySync applies updates to the cached structure transactionally.
	PolicySync UpdatePolicy = iota
	// PolicyInvalidate drops the entry on any base update.
	PolicyInvalidate
)

// FileFactory creates the backing file for a cache entry; it is how the
// cache is pointed at remote memory, SSD, or HDD (Figure 15a compares
// those placements).
type FileFactory func(p *sim.Proc, name string, size int64) (vfs.File, error)

// Cache is the semantic-cache broker.
type Cache struct {
	newFile FileFactory
	log     *txn.LogManager
	entries map[string]*Entry

	// Headroom is extra capacity reserved in each entry's backing file
	// for PolicySync appends past the initial build.
	Headroom int64

	Hits, Misses, Invalidations int64
}

// New creates a cache whose entries are stored in files from factory and
// whose REDO records go to lm (nil disables recovery logging).
func New(factory FileFactory, lm *txn.LogManager) *Cache {
	return &Cache{newFile: factory, log: lm, entries: make(map[string]*Entry), Headroom: 1 << 20}
}

// Entry is one cached structure.
type Entry struct {
	Name      string
	Signature string // the query shape this entry answers
	Schema    *row.Schema
	Policy    UpdatePolicy

	file  vfs.File
	size  int64 // serialized bytes
	rows  int64
	stale bool

	// snapshot is the base image captured at build time — the durable
	// checkpoint the paper's recovery path (§6.3) replays the WAL onto.
	// (In a real system this lives on disk; the simulation keeps the rows
	// without charging storage for them.)
	snapshot []row.Tuple

	checkpointLSN uint64 // REDO records after this LSN are not yet in file
}

// Rows returns the entry's row count.
func (e *Entry) Rows() int64 { return e.rows }

// Bytes returns the serialized size.
func (e *Entry) Bytes() int64 { return e.size }

// Stale reports whether the entry was invalidated.
func (e *Entry) Stale() bool { return e.stale }

// Build materializes the result of op into a new cache entry registered
// under sig. Build is opportunistic: failures (no remote memory) just
// mean no entry.
func (c *Cache) Build(ctx *exec.Ctx, name, sig string, op exec.Op, policy UpdatePolicy) (*Entry, error) {
	// Stream the source query: each row is encoded as it arrives, so the
	// only materialization is the cache entry itself (which is the
	// product, not a buffer).
	r, err := exec.Open(ctx, op)
	if err != nil {
		return nil, err
	}
	schema := r.Schema()
	var rows []row.Tuple
	var buf []byte
	var scratch [4]byte
	for {
		t, ok, err := r.Next()
		if err != nil {
			return nil, err
		}
		if !ok {
			break
		}
		img, err := row.Encode(nil, schema, t)
		if err != nil {
			r.Close()
			return nil, err
		}
		binary.LittleEndian.PutUint32(scratch[:], uint32(len(img)))
		buf = append(buf, scratch[:]...)
		buf = append(buf, img...)
		rows = append(rows, t)
	}
	if err := r.Close(); err != nil {
		return nil, err
	}
	capacity := int64(len(buf)) + c.Headroom
	if capacity <= 0 {
		capacity = 1
	}
	file, err := c.newFile(ctx.P, name, capacity)
	if err != nil {
		return nil, fmt.Errorf("semcache: backing store: %w", err)
	}
	// Write in large sequential chunks.
	const chunk = 512 << 10
	for off := 0; off < len(buf); off += chunk {
		end := off + chunk
		if end > len(buf) {
			end = len(buf)
		}
		if err := file.WriteAt(ctx.P, buf[off:end], int64(off)); err != nil {
			return nil, err
		}
	}
	e := &Entry{
		Name:      name,
		Signature: sig,
		Schema:    schema,
		Policy:    policy,
		file:      file,
		size:      int64(len(buf)),
		rows:      int64(len(rows)),
		snapshot:  rows,
	}
	if c.log != nil {
		e.checkpointLSN = c.log.NextLSN() - 1
	}
	c.entries[sig] = e
	return e, nil
}

// Lookup matches a query signature; a hit returns the entry.
func (c *Cache) Lookup(sig string) (*Entry, bool) {
	e, ok := c.entries[sig]
	if !ok || e.stale {
		c.Misses++
		return nil, false
	}
	c.Hits++
	return e, true
}

// Invalidate drops an entry (PolicyInvalidate path or manual).
func (c *Cache) Invalidate(sig string) {
	if e, ok := c.entries[sig]; ok {
		e.stale = true
		c.Invalidations++
	}
}

// ApplyUpdate maintains an entry for one changed base row: PolicySync
// appends the new image to the structure and logs a REDO record;
// PolicyInvalidate marks the entry stale.
func (c *Cache) ApplyUpdate(p *sim.Proc, e *Entry, t row.Tuple) error {
	if e.stale {
		return ErrStale
	}
	switch e.Policy {
	case PolicyInvalidate:
		e.stale = true
		c.Invalidations++
		return nil
	case PolicySync:
		img, err := row.Encode(nil, e.Schema, t)
		if err != nil {
			return err
		}
		if c.log != nil {
			payload := make([]byte, 2+len(e.Name)+len(img))
			binary.LittleEndian.PutUint16(payload, uint16(len(e.Name)))
			copy(payload[2:], e.Name)
			copy(payload[2+len(e.Name):], img)
			c.log.Append(txn.RecSemCache, payload)
		}
		var scratch [4]byte
		binary.LittleEndian.PutUint32(scratch[:], uint32(len(img)))
		rec := append(scratch[:], img...)
		if err := e.file.WriteAt(p, rec, e.size); err != nil {
			// Remote memory gone: best-effort, invalidate.
			e.stale = true
			c.Invalidations++
			return nil
		}
		e.size += int64(len(rec))
		e.rows++
		return nil
	}
	return nil
}

// Checkpoint records that the entry's file reflects the log up to now,
// bounding future recovery work (the x-axis of Figure 26 is the data
// dirtied since the last checkpoint).
func (c *Cache) Checkpoint(e *Entry) {
	if c.log != nil {
		e.checkpointLSN = c.log.NextLSN() - 1
	}
}

// Scan returns an operator replaying the entry's rows, charging the
// backing file's sequential read cost — this is how a query consumes
// the cache.
func (e *Entry) Scan(ctx *exec.Ctx) (exec.Op, error) {
	if e.stale {
		return nil, ErrStale
	}
	rows, err := e.readAll(ctx.P)
	if err != nil {
		return nil, err
	}
	return &exec.Values{Rows: rows, Sch: e.Schema}, nil
}

func (e *Entry) readAll(p *sim.Proc) ([]row.Tuple, error) {
	buf := make([]byte, e.size)
	const chunk = 512 << 10
	for off := int64(0); off < e.size; off += chunk {
		n := int64(chunk)
		if off+n > e.size {
			n = e.size - off
		}
		if err := e.file.ReadAt(p, buf[off:off+n], off); err != nil {
			e.stale = true
			return nil, err
		}
	}
	var rows []row.Tuple
	for off := 0; off < len(buf); {
		if off+4 > len(buf) {
			return nil, errors.New("semcache: corrupt entry file")
		}
		n := int(binary.LittleEndian.Uint32(buf[off:]))
		off += 4
		if off+n > len(buf) {
			return nil, errors.New("semcache: corrupt entry file")
		}
		t, err := row.Decode(e.Schema, buf[off:off+n])
		if err != nil {
			return nil, err
		}
		rows = append(rows, t)
		off += n
	}
	return rows, nil
}

// EntryForFile finds the entry whose backing file has the given name,
// or nil. This is how a remote file's salvage callback — which knows
// only the file it is repairing — locates the cache entry to rebuild.
func (c *Cache) EntryForFile(name string) *Entry {
	for _, e := range c.entries {
		if e.file != nil && e.file.Name() == name {
			return e
		}
	}
	return nil
}

// SalvageFile is the salvage callback body for a cache entry's backing
// file: after the file was restriped it rebuilds the entry in place from
// the checkpoint snapshot plus WAL REDO replay (§6.3). An entry with no
// snapshot or no log stays stale — queries keep running against base
// data, which is always correct. It returns the number of replayed
// records.
func (c *Cache) SalvageFile(p *sim.Proc, fileName string) (int, error) {
	e := c.EntryForFile(fileName)
	if e == nil {
		return 0, nil
	}
	if c.log == nil || e.snapshot == nil {
		e.stale = true
		return 0, nil
	}
	return c.RecoverInPlace(p, e, e.snapshot)
}

// RecoverInPlace rebuilds an entry into its existing backing file after
// a stripe of that file was lost and re-leased (§6.3): the snapshot
// rows are rewritten from offset zero and REDO records past the
// checkpoint are replayed on top, exactly like Recover but without
// allocating a replacement file — the restriped file is reused. If the
// rebuilt image no longer fits the file, it falls back to Recover.
func (c *Cache) RecoverInPlace(p *sim.Proc, e *Entry, snapshot []row.Tuple) (int, error) {
	if c.log == nil {
		return 0, errors.New("semcache: no log manager for recovery")
	}
	if e.file == nil {
		return c.Recover(p, e, snapshot)
	}
	var buf []byte
	var scratch [4]byte
	for _, t := range snapshot {
		img, err := row.Encode(nil, e.Schema, t)
		if err != nil {
			return 0, err
		}
		binary.LittleEndian.PutUint32(scratch[:], uint32(len(img)))
		buf = append(buf, scratch[:]...)
		buf = append(buf, img...)
	}
	if int64(len(buf)) > e.file.Size() {
		return c.Recover(p, e, snapshot)
	}
	const chunk = 512 << 10
	for off := 0; off < len(buf); off += chunk {
		end := off + chunk
		if end > len(buf) {
			end = len(buf)
		}
		if err := e.file.WriteAt(p, buf[off:end], int64(off)); err != nil {
			// The reused file is itself unhealthy: take the fresh-file path.
			return c.Recover(p, e, snapshot)
		}
	}
	e.size = int64(len(buf))
	e.rows = int64(len(snapshot))

	replayed := 0
	err := c.log.Replay(p, e.checkpointLSN, func(r txn.Record) error {
		if r.Type != txn.RecSemCache {
			return nil
		}
		if len(r.Payload) < 2 {
			return txn.ErrCorruptLog
		}
		nameLen := int(binary.LittleEndian.Uint16(r.Payload))
		if len(r.Payload) < 2+nameLen {
			return txn.ErrCorruptLog
		}
		if string(r.Payload[2:2+nameLen]) != e.Name {
			return nil
		}
		img := r.Payload[2+nameLen:]
		binary.LittleEndian.PutUint32(scratch[:], uint32(len(img)))
		rec := append(scratch[:], img...)
		if err := e.file.WriteAt(p, rec, e.size); err != nil {
			return err
		}
		e.size += int64(len(rec))
		e.rows++
		replayed++
		return nil
	})
	if err != nil {
		return replayed, err
	}
	e.stale = false
	e.checkpointLSN = c.log.NextLSN() - 1
	return replayed, nil
}

// Recover rebuilds an entry after its remote memory failed: the base
// snapshot is rebuilt by rebuild (typically re-running the defining
// query against a checkpointed image — here the caller supplies the
// snapshot rows), then REDO records after the checkpoint are replayed
// from the WAL into a fresh file. It returns the number of replayed
// records.
func (c *Cache) Recover(p *sim.Proc, e *Entry, snapshot []row.Tuple) (int, error) {
	if c.log == nil {
		return 0, errors.New("semcache: no log manager for recovery")
	}
	var buf []byte
	var scratch [4]byte
	for _, t := range snapshot {
		img, err := row.Encode(nil, e.Schema, t)
		if err != nil {
			return 0, err
		}
		binary.LittleEndian.PutUint32(scratch[:], uint32(len(img)))
		buf = append(buf, scratch[:]...)
		buf = append(buf, img...)
	}
	capacity := int64(len(buf)) + c.Headroom
	if capacity <= 0 {
		capacity = 1
	}
	file, err := c.newFile(p, e.Name+"-recovered", capacity)
	if err != nil {
		return 0, err
	}
	const chunk = 512 << 10
	for off := 0; off < len(buf); off += chunk {
		end := off + chunk
		if end > len(buf) {
			end = len(buf)
		}
		if err := file.WriteAt(p, buf[off:end], int64(off)); err != nil {
			return 0, err
		}
	}
	e.file = file
	e.size = int64(len(buf))
	e.rows = int64(len(snapshot))

	replayed := 0
	err = c.log.Replay(p, e.checkpointLSN, func(r txn.Record) error {
		if r.Type != txn.RecSemCache {
			return nil
		}
		if len(r.Payload) < 2 {
			return txn.ErrCorruptLog
		}
		nameLen := int(binary.LittleEndian.Uint16(r.Payload))
		if len(r.Payload) < 2+nameLen {
			return txn.ErrCorruptLog
		}
		if string(r.Payload[2:2+nameLen]) != e.Name {
			return nil
		}
		img := r.Payload[2+nameLen:]
		binary.LittleEndian.PutUint32(scratch[:], uint32(len(img)))
		rec := append(scratch[:], img...)
		if err := e.file.WriteAt(p, rec, e.size); err != nil {
			return err
		}
		e.size += int64(len(rec))
		e.rows++
		replayed++
		return nil
	})
	if err != nil {
		return replayed, err
	}
	e.stale = false
	e.checkpointLSN = c.log.NextLSN() - 1
	return replayed, nil
}
