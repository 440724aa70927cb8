package vfs

import (
	"bytes"
	"testing"
	"testing/quick"
	"time"

	"remotedb/internal/hw/disk"
	"remotedb/internal/sim"
)

// newKernel returns a kernel that is closed when the test ends, so the
// procs it parked end with it.
func newKernel(tb testing.TB, seed int64) *sim.Kernel {
	k := sim.New(seed)
	tb.Cleanup(k.Close)
	return k
}

func TestMemFileRoundTrip(t *testing.T) {
	k := newKernel(t, 1)
	k.Go("t", func(p *sim.Proc) {
		f := NewMemFile("m")
		data := bytes.Repeat([]byte{7}, 100000)
		if err := f.WriteAt(p, data, 12345); err != nil {
			t.Error(err)
		}
		got := make([]byte, 100000)
		if err := f.ReadAt(p, got, 12345); err != nil {
			t.Error(err)
		}
		if !bytes.Equal(data, got) {
			t.Error("round trip corrupted")
		}
		if f.Size() != 12345+100000 {
			t.Errorf("size = %d", f.Size())
		}
	})
	k.Run(0)
	if k.Now() != 0 {
		t.Fatalf("MemFile charged time: %v", k.Now())
	}
}

func TestMemFileReadsZerosFromHoles(t *testing.T) {
	k := newKernel(t, 1)
	k.Go("t", func(p *sim.Proc) {
		f := NewMemFile("m")
		f.WriteAt(p, []byte{1}, 1<<20) // sparse write far out
		got := make([]byte, 16)
		got[3] = 0xFF
		f.ReadAt(p, got, 0)
		for i, b := range got {
			if b != 0 {
				t.Errorf("hole byte %d = %d, want 0", i, b)
			}
		}
	})
	k.Run(0)
}

func TestClosedFileRejected(t *testing.T) {
	k := newKernel(t, 1)
	k.Go("t", func(p *sim.Proc) {
		f := NewMemFile("m")
		f.Close(p)
		if err := f.ReadAt(p, make([]byte, 1), 0); err != ErrClosed {
			t.Errorf("read after close: %v", err)
		}
		if err := f.WriteAt(p, []byte{1}, 0); err != ErrClosed {
			t.Errorf("write after close: %v", err)
		}
	})
	k.Run(0)
}

func TestNegativeOffsetRejected(t *testing.T) {
	k := newKernel(t, 1)
	k.Go("t", func(p *sim.Proc) {
		f := NewMemFile("m")
		if err := f.ReadAt(p, make([]byte, 1), -1); err == nil {
			t.Error("negative read offset accepted")
		}
		if err := f.WriteAt(p, []byte{1}, -5); err == nil {
			t.Error("negative write offset accepted")
		}
	})
	k.Run(0)
}

func TestDeviceFileChargesTime(t *testing.T) {
	k := newKernel(t, 1)
	ssd := disk.NewSSD(k, "ssd", disk.DefaultSSDConfig())
	var elapsed time.Duration
	k.Go("t", func(p *sim.Proc) {
		f := NewDeviceFile("d", ssd)
		data := make([]byte, 8192)
		f.WriteAt(p, data, 0)
		f.ReadAt(p, data, 0)
		elapsed = p.Now()
	})
	k.Run(0)
	if elapsed <= 0 {
		t.Fatal("device file should charge time")
	}
	if ssd.Reads != 1 || ssd.Writes != 1 {
		t.Fatalf("device counters %d/%d", ssd.Reads, ssd.Writes)
	}
}

func TestDeviceFilePreservesData(t *testing.T) {
	k := newKernel(t, 1)
	hdd := disk.NewHDDArray(k, "hdd", disk.DefaultHDDArrayConfig(4))
	k.Go("t", func(p *sim.Proc) {
		f := NewDeviceFile("d", hdd)
		data := []byte("hello raid zero")
		f.WriteAt(p, data, 777777)
		got := make([]byte, len(data))
		f.ReadAt(p, got, 777777)
		if !bytes.Equal(data, got) {
			t.Error("data corrupted on device file")
		}
	})
	k.Run(0)
}

// Property: any sequence of writes followed by reads behaves like a flat
// byte array.
func TestSparseMatchesFlatProperty(t *testing.T) {
	type op struct {
		Off  uint32
		Data []byte
	}
	f := func(ops []op) bool {
		s := newSparse()
		flat := make([]byte, 1<<20)
		for _, o := range ops {
			off := int64(o.Off % (1 << 19))
			if len(o.Data) > 4096 {
				o.Data = o.Data[:4096]
			}
			s.writeAt(o.Data, off)
			copy(flat[off:], o.Data)
		}
		got := make([]byte, 1<<19)
		s.readAt(got, 0)
		return bytes.Equal(got, flat[:1<<19])
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

func TestSparseCrossChunkBoundary(t *testing.T) {
	s := newSparse()
	data := bytes.Repeat([]byte{0xCD}, 3*chunkSize)
	s.writeAt(data, chunkSize/2)
	got := make([]byte, len(data))
	s.readAt(got, chunkSize/2)
	if !bytes.Equal(data, got) {
		t.Fatal("cross-chunk round trip corrupted")
	}
}

// Chunk-boundary edge cases at the File level: writes that end exactly
// on a 64 KiB chunk boundary, start one byte before it, or straddle it
// by one byte must round-trip, and the holes they leave on either side
// must read as zeros.
func TestChunkBoundaryReadsAndWrites(t *testing.T) {
	k := newKernel(t, 1)
	k.Go("t", func(p *sim.Proc) {
		f := NewMemFile("edges")
		cases := []struct {
			name string
			off  int64
			n    int
		}{
			{"ends-on-boundary", chunkSize - 100, 100},
			{"starts-on-boundary", 3 * chunkSize, 100},
			{"one-byte-before", 5*chunkSize - 1, 1},
			{"one-byte-after", 7 * chunkSize, 1},
			{"straddles-by-one", 9*chunkSize - 1, 2},
			{"spans-three-chunks", 11*chunkSize - 7, 2*chunkSize + 14},
		}
		for i, c := range cases {
			data := bytes.Repeat([]byte{byte(0x10 + i)}, c.n)
			if err := f.WriteAt(p, data, c.off); err != nil {
				t.Fatalf("%s: write: %v", c.name, err)
			}
			got := make([]byte, c.n)
			if err := f.ReadAt(p, got, c.off); err != nil {
				t.Fatalf("%s: read: %v", c.name, err)
			}
			if !bytes.Equal(data, got) {
				t.Errorf("%s: round trip corrupted", c.name)
			}
			// The byte on each side of the write is still a hole (no
			// earlier case wrote adjacent to it) and must read zero.
			edge := make([]byte, 1)
			if c.off > 0 {
				f.ReadAt(p, edge, c.off-1)
				if edge[0] != 0 {
					t.Errorf("%s: byte before write = %#x, want 0", c.name, edge[0])
				}
			}
			f.ReadAt(p, edge, c.off+int64(c.n))
			if edge[0] != 0 {
				t.Errorf("%s: byte after write = %#x, want 0", c.name, edge[0])
			}
		}
	})
	k.Run(0)
}

// A read spanning written chunk / hole chunk / written chunk must stitch
// data and zero-fill together correctly.
func TestReadAcrossHoleBetweenChunks(t *testing.T) {
	k := newKernel(t, 1)
	k.Go("t", func(p *sim.Proc) {
		f := NewMemFile("holes")
		left := bytes.Repeat([]byte{0xAA}, chunkSize)
		right := bytes.Repeat([]byte{0xBB}, chunkSize)
		f.WriteAt(p, left, 0)            // chunk 0
		f.WriteAt(p, right, 2*chunkSize) // chunk 2; chunk 1 is a hole
		got := make([]byte, 3*chunkSize) // spans all three
		if err := f.ReadAt(p, got, 0); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got[:chunkSize], left) {
			t.Error("left chunk corrupted")
		}
		if !bytes.Equal(got[chunkSize:2*chunkSize], make([]byte, chunkSize)) {
			t.Error("hole chunk not zero-filled")
		}
		if !bytes.Equal(got[2*chunkSize:], right) {
			t.Error("right chunk corrupted")
		}
		if f.Size() != 3*chunkSize {
			t.Errorf("size = %d, want %d", f.Size(), 3*chunkSize)
		}
	})
	k.Run(0)
}

// A read buffer larger than the leftover of a stale chunk's prior write
// must not see the prior write's bytes beyond the hole: zero-fill is
// per missing chunk, data per present chunk, regardless of read offset
// alignment.
func TestUnalignedReadOverPartialChunks(t *testing.T) {
	k := newKernel(t, 1)
	k.Go("t", func(p *sim.Proc) {
		f := NewMemFile("partial")
		// Write only the middle third of chunk 1.
		third := chunkSize / 3
		data := bytes.Repeat([]byte{0xEE}, third)
		f.WriteAt(p, data, chunkSize+int64(third))
		// Read the whole of chunks 0..2 at an unaligned offset.
		got := make([]byte, 2*chunkSize+99)
		if err := f.ReadAt(p, got, 51); err != nil {
			t.Fatal(err)
		}
		for i, b := range got {
			off := int64(i) + 51
			inWrite := off >= chunkSize+int64(third) && off < chunkSize+2*int64(third)
			want := byte(0)
			if inWrite {
				want = 0xEE
			}
			if b != want {
				t.Fatalf("byte at %d = %#x, want %#x", off, b, want)
			}
		}
	})
	k.Run(0)
}
