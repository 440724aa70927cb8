// Vectored (scatter-gather) file I/O. A Vec names one element of a
// multi-extent transfer; files that can batch the elements into fewer
// charged operations implement VectorFile, and ReadVec/WriteVec give
// every consumer a single call site that uses the batched path when the
// file has one and degrades to a per-element loop when it does not.
package vfs

import (
	"fmt"

	"remotedb/internal/hw/disk"
	"remotedb/internal/sim"
)

// Vec is one element of a vectored transfer: len(Buf) bytes at Off.
type Vec struct {
	Off int64
	Buf []byte
}

// VectorFile is implemented by files with a native scatter-gather path —
// the remote-memory file batches elements into doorbell-coalesced RDMA
// transfers, device files merge adjacent extents into one seek. On
// error some elements may already have transferred; callers that need
// to localize a failure fall back to per-element ReadAt/WriteAt. Write
// vectors must not contain overlapping elements.
type VectorFile interface {
	File
	ReadAtV(p *sim.Proc, vecs []Vec) error
	WriteAtV(p *sim.Proc, vecs []Vec) error
}

// ReadVec reads every element of vecs from f, through the native
// scatter-gather path when f has one.
func ReadVec(p *sim.Proc, f File, vecs []Vec) error {
	if vf, ok := f.(VectorFile); ok {
		return vf.ReadAtV(p, vecs)
	}
	for _, v := range vecs {
		if err := f.ReadAt(p, v.Buf, v.Off); err != nil {
			return err
		}
	}
	return nil
}

// WriteVec writes every element of vecs to f, through the native
// scatter-gather path when f has one.
func WriteVec(p *sim.Proc, f File, vecs []Vec) error {
	if vf, ok := f.(VectorFile); ok {
		return vf.WriteAtV(p, vecs)
	}
	for _, v := range vecs {
		if err := f.WriteAt(p, v.Buf, v.Off); err != nil {
			return err
		}
	}
	return nil
}

// ReadAtV copies every element out; no time is charged either way, so
// this exists only to satisfy VectorFile.
func (f *MemFile) ReadAtV(p *sim.Proc, vecs []Vec) error {
	for _, v := range vecs {
		if err := f.ReadAt(p, v.Buf, v.Off); err != nil {
			return err
		}
	}
	return nil
}

// WriteAtV copies every element in; no time is charged.
func (f *MemFile) WriteAtV(p *sim.Proc, vecs []Vec) error {
	for _, v := range vecs {
		if err := f.WriteAt(p, v.Buf, v.Off); err != nil {
			return err
		}
	}
	return nil
}

// ReadAtV charges the device once per contiguous run of elements — the
// elevator merge a real block layer performs on a sorted batch — with
// every run in flight at once, and copies each element out.
func (f *DeviceFile) ReadAtV(p *sim.Proc, vecs []Vec) error {
	return f.deviceVec(p, vecs, false)
}

// WriteAtV charges the device once per contiguous run, every run in
// flight at once, and copies each element in.
func (f *DeviceFile) WriteAtV(p *sim.Proc, vecs []Vec) error {
	return f.deviceVec(p, vecs, true)
}

// deviceVec is the one device path: it merges adjacent elements into
// runs and issues the runs together, so they queue at the spindles or
// flash channels they map to (disk.FanOut) rather than one after
// another. A scalar ReadAt/WriteAt is a vector of one run, charged
// inline. Every element is checked before any time is charged.
func (f *DeviceFile) deviceVec(p *sim.Proc, vecs []Vec, write bool) error {
	if f.closed {
		return ErrClosed
	}
	starts := make([]int, 0, 2)
	for i, v := range vecs {
		if v.Off < 0 {
			return fmt.Errorf("vfs: negative offset %d", v.Off)
		}
		if i == 0 || v.Off != vecs[i-1].Off+int64(len(vecs[i-1].Buf)) {
			starts = append(starts, i)
		}
	}
	starts = append(starts, len(vecs))
	disk.FanOut(p, "device-run", len(starts)-1, func(cp *sim.Proc, r int) {
		run := vecs[starts[r]:starts[r+1]]
		var size int64
		for _, v := range run {
			size += int64(len(v.Buf))
		}
		if write {
			f.dev.Write(cp, run[0].Off, size)
		} else {
			f.dev.Read(cp, run[0].Off, size)
		}
		for _, v := range run {
			if write {
				f.data.writeAt(v.Buf, v.Off)
				f.Writes++
				f.Written += int64(len(v.Buf))
			} else {
				f.data.readAt(v.Buf, v.Off)
				f.Reads++
				f.BytesRead += int64(len(v.Buf))
			}
		}
	})
	return nil
}

var (
	_ VectorFile = (*MemFile)(nil)
	_ VectorFile = (*DeviceFile)(nil)
)
