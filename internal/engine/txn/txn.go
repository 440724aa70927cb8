// Package txn implements the engine's write-ahead log: an append-only
// record stream with group commit. Updates append REDO records; commit
// forces the log. The log's sequential write performance on the HDD
// array is why the paper's RangeScan-with-updates throughput rises with
// spindle count (Figures 7 and 8), and the REDO replay path rebuilds the
// semantic cache after a remote-node failure (Figure 26).
package txn

import (
	"encoding/binary"
	"errors"

	"remotedb/internal/sim"
	"remotedb/internal/vfs"
)

// RecordType tags log records.
type RecordType uint8

// Record types used by the engine.
const (
	RecUpdate RecordType = iota + 1
	RecCommit
	RecCheckpoint
	RecSemCache // REDO record for a semantic-cache structure
)

// Record is one log entry.
type Record struct {
	LSN     uint64
	Type    RecordType
	Payload []byte
}

// ErrCorruptLog indicates an undecodable log image.
var ErrCorruptLog = errors.New("txn: corrupt log")

// LogManager owns the log file and the group-commit machinery.
type LogManager struct {
	k    *sim.Kernel
	file vfs.File

	nextLSN    uint64
	flushedLSN uint64
	buf        []byte // records appended since last flush
	spare      []byte // the last batch written, emptied: the next force's buf
	fileOff    int64

	flushing   bool
	flushDone  *sim.Cond
	Flushes    int64
	Appends    int64
	BytesWrote int64
}

// New creates a log manager on file (typically the HDD array).
func New(k *sim.Kernel, file vfs.File) *LogManager {
	return &LogManager{k: k, file: file, nextLSN: 1, flushDone: sim.NewCond(k)}
}

// Append adds a record to the log buffer and returns its LSN. The record
// is durable only after a Commit (force) covering the LSN.
func (lm *LogManager) Append(t RecordType, payload []byte) uint64 {
	lsn := lm.nextLSN
	lm.nextLSN++
	var hdr [13]byte
	binary.LittleEndian.PutUint64(hdr[0:], lsn)
	hdr[8] = byte(t)
	binary.LittleEndian.PutUint32(hdr[9:], uint32(len(payload)))
	lm.buf = append(lm.buf, hdr[:]...)
	lm.buf = append(lm.buf, payload...)
	lm.Appends++
	return lsn
}

// Commit forces the log up to lsn (group commit: a concurrent flush that
// covers the LSN satisfies the caller; otherwise the caller leads a new
// flush of everything buffered).
func (lm *LogManager) Commit(p *sim.Proc, lsn uint64) error {
	for lm.flushedLSN < lsn {
		if lm.flushing {
			lm.flushDone.Wait(p)
			continue
		}
		lm.flushing = true
		// Records appended during the write go into the spare, not the
		// batch being written. WriteAt keeps no reference to the batch,
		// so once written it becomes the spare.
		batch := lm.buf
		lm.buf, lm.spare = lm.spare[:0], nil
		upto := lm.nextLSN - 1
		var err error
		if len(batch) > 0 {
			err = lm.file.WriteAt(p, batch, lm.fileOff)
			lm.Flushes++
			if err == nil {
				lm.fileOff += int64(len(batch))
				lm.BytesWrote += int64(len(batch))
			} else {
				// The batch is not on disk: it goes back ahead of what
				// was appended during the write, and the next force
				// writes it at the same offset, so the durable horizon
				// never passes a lost record.
				lm.buf = append(batch, lm.buf...)
			}
		}
		lm.flushing = false
		if err == nil {
			lm.flushedLSN = upto
			lm.spare = batch[:0]
		}
		lm.flushDone.Broadcast()
		if err != nil {
			return err
		}
	}
	return nil
}

// FlushedLSN returns the durable horizon.
func (lm *LogManager) FlushedLSN() uint64 { return lm.flushedLSN }

// NextLSN returns the LSN the next Append will get.
func (lm *LogManager) NextLSN() uint64 { return lm.nextLSN }

// Replay scans the durable log and calls fn for every record with
// LSN > afterLSN, in order. Used for semantic-cache recovery.
func (lm *LogManager) Replay(p *sim.Proc, afterLSN uint64, fn func(Record) error) error {
	var off int64
	buf := make([]byte, 13)
	for off < lm.fileOff {
		if err := lm.file.ReadAt(p, buf, off); err != nil {
			return err
		}
		lsn := binary.LittleEndian.Uint64(buf[0:])
		t := RecordType(buf[8])
		n := binary.LittleEndian.Uint32(buf[9:])
		off += 13
		if off+int64(n) > lm.fileOff {
			return ErrCorruptLog
		}
		payload := make([]byte, n)
		if n > 0 {
			if err := lm.file.ReadAt(p, payload, off); err != nil {
				return err
			}
		}
		off += int64(n)
		if lsn <= afterLSN {
			continue
		}
		if err := fn(Record{LSN: lsn, Type: t, Payload: payload}); err != nil {
			return err
		}
	}
	return nil
}
