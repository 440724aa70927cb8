package vfs

import (
	"bytes"
	"testing"
	"time"

	"remotedb/internal/hw/disk"
	"remotedb/internal/sim"
)

// pages returns n 8 KiB elements, element i at base+i*stride and filled
// with byte i+1.
func pages(n int, base, stride int64) []Vec {
	vecs := make([]Vec, n)
	for i := range vecs {
		vecs[i] = Vec{Off: base + int64(i)*stride, Buf: bytes.Repeat([]byte{byte(i + 1)}, 8192)}
	}
	return vecs
}

// timeVec runs one vectored transfer on a fresh proc and returns the
// virtual time it took.
func timeVec(k *sim.Kernel, f *DeviceFile, vecs []Vec, write bool) (time.Duration, error) {
	var elapsed time.Duration
	var err error
	k.Go("t", func(p *sim.Proc) {
		if write {
			err = f.WriteAtV(p, vecs)
		} else {
			err = f.ReadAtV(p, vecs)
		}
		elapsed = p.Now()
	})
	k.Run(0)
	return elapsed, err
}

// The runs of one vector are issued together: 20 scattered pages, one
// per spindle of a 20-wide array, cost about one random write, not the
// twenty a run-after-run loop pays.
func TestDeviceVecRunsConcurrently(t *testing.T) {
	k := newKernel(t, 1)
	cfg := disk.DefaultHDDArrayConfig(20)
	hdd := disk.NewHDDArray(k, "hdd", cfg)
	f := NewDeviceFile("d", hdd)
	vecs := pages(20, 0, cfg.StripeUnit) // stripe unit i lands on spindle i
	elapsed, err := timeVec(k, f, vecs, true)
	if err != nil {
		t.Fatal(err)
	}
	oneWrite := cfg.Spindle.SeekMax + time.Duration(8192/cfg.Spindle.BytesPerSec*1e9)
	if elapsed > oneWrite {
		t.Errorf("20 one-per-spindle writes took %v, want within one random write (%v)", elapsed, oneWrite)
	}
	if _, w, _, bw := hdd.Stats(); w != 20 || bw != 20*8192 {
		t.Errorf("spindle writes/bytes = %d/%d, want 20/%d", w, bw, 20*8192)
	}
}

// Adjacent elements still merge: four contiguous pages inside one stripe
// unit are one spindle op.
func TestDeviceVecMergesContiguousElements(t *testing.T) {
	k := newKernel(t, 1)
	hdd := disk.NewHDDArray(k, "hdd", disk.DefaultHDDArrayConfig(20))
	f := NewDeviceFile("d", hdd)
	if _, err := timeVec(k, f, pages(4, 0, 8192), true); err != nil {
		t.Fatal(err)
	}
	if _, w, _, bw := hdd.Stats(); w != 1 || bw != 4*8192 {
		t.Errorf("spindle writes/bytes = %d/%d, want 1/%d", w, bw, 4*8192)
	}
	if f.Writes != 4 || f.Written != 4*8192 {
		t.Errorf("file writes/bytes = %d/%d, want 4/%d", f.Writes, f.Written, 4*8192)
	}
}

// A vector moves the same bytes and counts the same as a loop of scalar
// calls over its elements.
func TestDeviceVecMatchesElementLoop(t *testing.T) {
	k := newKernel(t, 1)
	vecFile := NewDeviceFile("vec", disk.NewHDDArray(k, "a", disk.DefaultHDDArrayConfig(20)))
	loopFile := NewDeviceFile("loop", disk.NewHDDArray(k, "b", disk.DefaultHDDArrayConfig(20)))
	// Two contiguous runs and three scattered pages.
	in := append(pages(3, 0, 8192), pages(2, 1<<20, 8192)...)
	in = append(in, pages(3, 5<<20, 3<<16)...)
	k.Go("t", func(p *sim.Proc) {
		if err := vecFile.WriteAtV(p, in); err != nil {
			t.Error(err)
		}
		for _, v := range in {
			if err := loopFile.WriteAt(p, v.Buf, v.Off); err != nil {
				t.Error(err)
			}
		}
		out := make([]Vec, len(in))
		for i, v := range in {
			out[i] = Vec{Off: v.Off, Buf: make([]byte, len(v.Buf))}
		}
		if err := vecFile.ReadAtV(p, out); err != nil {
			t.Error(err)
		}
		for i, v := range out {
			if !bytes.Equal(v.Buf, in[i].Buf) {
				t.Errorf("element %d at %d: read back wrong bytes", i, v.Off)
			}
			if err := loopFile.ReadAt(p, v.Buf, v.Off); err != nil {
				t.Error(err)
			}
		}
	})
	k.Run(0)
	got := [4]int64{vecFile.Reads, vecFile.Writes, vecFile.BytesRead, vecFile.Written}
	want := [4]int64{loopFile.Reads, loopFile.Writes, loopFile.BytesRead, loopFile.Written}
	if got != want {
		t.Errorf("vector counters (reads, writes, bytes read, written) = %v, loop's = %v", got, want)
	}
	if vecFile.Size() != loopFile.Size() {
		t.Errorf("vector size %d, loop size %d", vecFile.Size(), loopFile.Size())
	}
}

// A closed file or a negative offset anywhere in the vector fails the
// whole call before any device time is charged.
func TestDeviceVecRejectsBeforeCharging(t *testing.T) {
	k := newKernel(t, 1)
	hdd := disk.NewHDDArray(k, "hdd", disk.DefaultHDDArrayConfig(20))
	f := NewDeviceFile("d", hdd)
	bad := append(pages(3, 0, 1<<16), Vec{Off: -8192, Buf: make([]byte, 8192)})
	for _, write := range []bool{true, false} {
		if elapsed, err := timeVec(k, f, bad, write); err == nil || elapsed != 0 {
			t.Errorf("negative offset (write=%v): err %v after %v, want an error at 0", write, err, elapsed)
		}
	}
	k.Go("close", func(p *sim.Proc) { f.Close(p) })
	k.Run(0)
	for _, write := range []bool{true, false} {
		if elapsed, err := timeVec(k, f, pages(3, 0, 1<<16), write); err != ErrClosed || elapsed != 0 {
			t.Errorf("closed file (write=%v): err %v after %v, want ErrClosed at 0", write, err, elapsed)
		}
	}
	if r, w, _, _ := hdd.Stats(); r != 0 || w != 0 || f.Reads != 0 || f.Writes != 0 {
		t.Errorf("rejected calls reached the device: %d reads, %d writes", r+f.Reads, w+f.Writes)
	}
}

// On the SSD the runs share its command slots: eight scattered pages
// take about one command time, not eight.
func TestDeviceVecSharesSSDChannels(t *testing.T) {
	k := newKernel(t, 1)
	cfg := disk.DefaultSSDConfig()
	ssd := disk.NewSSD(k, "ssd", cfg)
	f := NewDeviceFile("d", ssd)
	elapsed, err := timeVec(k, f, pages(cfg.Channels, 0, 1<<20), false)
	if err != nil {
		t.Fatal(err)
	}
	if elapsed >= 2*cfg.CommandTime {
		t.Errorf("%d runs took %v, want about one command time (%v)", cfg.Channels, elapsed, cfg.CommandTime)
	}
	if ssd.Reads != int64(cfg.Channels) {
		t.Errorf("SSD reads = %d, want %d", ssd.Reads, cfg.Channels)
	}
}
