package tempdb

import (
	"bytes"
	"errors"
	"fmt"
	"runtime"
	"testing"
	"time"

	"remotedb/internal/cluster"
	"remotedb/internal/fault"
	"remotedb/internal/sim"
	"remotedb/internal/testkit"
	"remotedb/internal/vfs"
)

func TestSpillRoundTrip(t *testing.T) {
	k := newKernel(t, 1)
	k.Go("t", func(p *sim.Proc) {
		td := New(vfs.NewMemFile("tempdb"))
		f := td.NewFile("run1")
		var want [][]byte
		for i := 0; i < 10000; i++ {
			rec := []byte(fmt.Sprintf("record-%d-%s", i, bytes.Repeat([]byte{'x'}, i%100)))
			want = append(want, rec)
			if err := f.Append(p, rec); err != nil {
				t.Error(err)
				return
			}
		}
		if err := f.Flush(p); err != nil {
			t.Error(err)
			return
		}
		r := f.NewReader()
		for i := 0; ; i++ {
			rec, ok, err := r.Next(p)
			if err != nil {
				t.Error(err)
				return
			}
			if !ok {
				if i != len(want) {
					t.Errorf("stream ended at %d, want %d", i, len(want))
				}
				return
			}
			if !bytes.Equal(rec, want[i]) {
				t.Errorf("record %d mismatch", i)
				return
			}
		}
	})
	k.Run(time.Minute)
}

func TestMultipleStreamsInterleaved(t *testing.T) {
	k := newKernel(t, 1)
	k.Go("t", func(p *sim.Proc) {
		td := New(vfs.NewMemFile("tempdb"))
		a := td.NewFile("a")
		b := td.NewFile("b")
		big := bytes.Repeat([]byte{0xAA}, 100000)
		for i := 0; i < 100; i++ {
			a.Append(p, big)
			b.Append(p, []byte{byte(i)})
		}
		a.Flush(p)
		b.Flush(p)
		rb := b.NewReader()
		for i := 0; i < 100; i++ {
			rec, ok, err := rb.Next(p)
			if err != nil || !ok || len(rec) != 1 || rec[0] != byte(i) {
				t.Errorf("stream b record %d: %v %v %v", i, rec, ok, err)
				return
			}
		}
		ra := a.NewReader()
		n := 0
		for {
			rec, ok, _ := ra.Next(p)
			if !ok {
				break
			}
			if !bytes.Equal(rec, big) {
				t.Error("stream a corrupted")
				return
			}
			n++
		}
		if n != 100 {
			t.Errorf("stream a has %d records", n)
		}
	})
	k.Run(time.Minute)
}

func TestLargeSequentialIO(t *testing.T) {
	// Spills on the HDD array must be written in big blocks: with 512K
	// blocks the sequential path dominates and throughput approaches the
	// raid rate.
	k := newKernel(t, 1)
	cfg := cluster.DefaultConfig()
	cfg.Spindles = 20
	s := cluster.NewServer(k, "db", cfg)
	dev := vfs.NewDeviceFile("tempdb", s.HDD)
	var elapsed time.Duration
	const totalBytes = 64 << 20
	k.Go("t", func(p *sim.Proc) {
		td := New(dev)
		f := td.NewFile("big")
		rec := make([]byte, 64<<10)
		start := p.Now()
		for i := 0; i < totalBytes/len(rec); i++ {
			f.Append(p, rec)
		}
		f.Flush(p)
		elapsed = p.Now() - start
	})
	k.Run(time.Minute)
	bps := float64(totalBytes) / elapsed.Seconds()
	// One synchronous stream keeps only 8 of the 20 spindles busy per
	// 512 K block (~730 MB/s ceiling); anything far below that means the
	// writes degenerated to small or random I/O.
	if bps < 0.4e9 {
		t.Fatalf("spill throughput = %.3g B/s; writes are not sequential-sized", bps)
	}
}

func TestReaderBeforeFlushPanics(t *testing.T) {
	k := newKernel(t, 1)
	k.Go("t", func(p *sim.Proc) {
		td := New(vfs.NewMemFile("tempdb"))
		f := td.NewFile("x")
		f.Append(p, []byte("unflushed"))
		defer func() {
			if recover() == nil {
				t.Error("NewReader before Flush should panic")
			}
		}()
		f.NewReader()
	})
	k.Run(time.Minute)
}

func TestEmptyStream(t *testing.T) {
	k := newKernel(t, 1)
	k.Go("t", func(p *sim.Proc) {
		td := New(vfs.NewMemFile("tempdb"))
		f := td.NewFile("empty")
		f.Flush(p)
		r := f.NewReader()
		if _, ok, err := r.Next(p); ok || err != nil {
			t.Errorf("empty stream: ok=%v err=%v", ok, err)
		}
	})
	k.Run(time.Minute)
}

func TestBytesAccounting(t *testing.T) {
	k := newKernel(t, 1)
	k.Go("t", func(p *sim.Proc) {
		td := New(vfs.NewMemFile("tempdb"))
		f := td.NewFile("acct")
		f.Append(p, make([]byte, 1000))
		f.Flush(p)
		if td.BytesSpilled != 1004 {
			t.Errorf("spilled = %d, want 1004", td.BytesSpilled)
		}
		r := f.NewReader()
		r.Next(p)
		if td.BytesRead != 1004 {
			t.Errorf("read = %d, want 1004", td.BytesRead)
		}
	})
	k.Run(time.Minute)
}

// fill appends n records of size bytes, each stamped with its index.
func fill(p *sim.Proc, f *SpillFile, n, size int) error {
	rec := make([]byte, size)
	for i := 0; i < n; i++ {
		for j := range rec {
			rec[j] = byte(i + j)
		}
		if err := f.Append(p, rec); err != nil {
			return err
		}
	}
	return f.Flush(p)
}

// drain reads the stream back and checks every record fill wrote.
func drain(t *testing.T, p *sim.Proc, f *SpillFile, n, size int) {
	t.Helper()
	r := f.NewReader()
	for i := 0; ; i++ {
		rec, ok, err := r.Next(p)
		if err != nil {
			t.Fatalf("%s record %d: %v", f.name, i, err)
		}
		if !ok {
			if i != n {
				t.Errorf("%s ended after %d records, want %d", f.name, i, n)
			}
			return
		}
		if len(rec) != size {
			t.Fatalf("%s record %d: %d bytes, want %d", f.name, i, len(rec), size)
		}
		for j, c := range rec {
			if c != byte(i+j) {
				t.Fatalf("%s record %d: byte %d is %#x", f.name, i, j, c)
			}
		}
	}
}

// recycled checks the invariant of both buffer lists once every stream
// is released: each buffer made is idle again, and no more were made than
// were in use at once.
func recycled(t *testing.T, td *TempDB) {
	t.Helper()
	for _, l := range []struct {
		name string
		*bufList
	}{{"chunks", &td.chunks}, {"blocks", &td.blocks}} {
		if l.made != l.maxHeld || len(l.idle) != l.made {
			t.Errorf("%s: %d made, at most %d in use at once, %d idle", l.name, l.made, l.maxHeld, len(l.idle))
		}
	}
}

// Records of a size that divides neither a block nor an extent straddle
// both kinds of boundary, in two streams whose extents interleave, and
// every record comes back. A stream written and read after that runs
// through the buffers its predecessor gave back and allocates none.
func TestSpillBuffersRecycledAcrossBoundaries(t *testing.T) {
	k := newKernel(t, 1)
	k.Go("t", func(p *sim.Proc) {
		mem := vfs.NewMemFile("tempdb")
		mem.WriteAt(p, make([]byte, 6*extentSize), 0) // the file's own memory, all of it, up front
		td := New(mem)
		const size, n = 1777, 5000 // 8.9 MB a stream: three extents, eighteen blocks
		a, b := td.NewFile("a"), td.NewFile("b")
		rec := make([]byte, size)
		for i := 0; i < n; i++ {
			for j := range rec {
				rec[j] = byte(i + j)
			}
			if err := a.Append(p, rec); err != nil {
				t.Fatal(err)
			}
			if err := b.Append(p, rec); err != nil {
				t.Fatal(err)
			}
		}
		if err := a.Flush(p); err != nil {
			t.Fatal(err)
		}
		if err := b.Flush(p); err != nil {
			t.Fatal(err)
		}
		drain(t, p, a, n, size)
		drain(t, p, b, n, size)
		a.Release()
		b.Release()
		high := td.HighWater()

		one := func(name string) {
			f := td.NewFile(name)
			if err := fill(p, f, n, size); err != nil {
				t.Fatal(err)
			}
			drain(t, p, f, n, size)
			f.Release()
		}
		one("first")
		var m0, m1 runtime.MemStats
		runtime.ReadMemStats(&m0)
		one("second")
		runtime.ReadMemStats(&m1)
		// fill's record buffer is the one allocation of note.
		if got := m1.TotalAlloc - m0.TotalAlloc; got >= BlockSize/4 {
			t.Errorf("second stream allocated %d bytes: spill buffers are not recycled", got)
		}
		if td.HighWater() != high {
			t.Errorf("later streams grew the TempDB from %d to %d bytes", high, td.HighWater())
		}
		recycled(t, td)
		// Each stream holds at most a block's chunks and the chunk the
		// record that crossed the block's end spilled into.
		if most := 2 * (BlockSize/chunkSize + 1); td.chunks.made > most {
			t.Errorf("%d chunks made for two streams, at most %d needed", td.chunks.made, most)
		}
	})
	k.Run(time.Minute)
}

// A stream that outgrows a file of fixed size fails with ErrFull and
// gives back what it held — but not the extent past the end of the file,
// which would fail the next stream too.
func TestSpillPastFixedFileIsErrFull(t *testing.T) {
	k := newKernel(t, 1)
	k.Go("t", func(p *sim.Proc) {
		td := New(&testkit.FixedFile{MemFile: vfs.NewMemFile("tempdb"), Limit: 2 * extentSize})
		big := td.NewFile("big")
		err := fill(p, big, 9<<10, 1<<10) // 9 MB into 8
		if !errors.Is(err, ErrFull) || !errors.Is(err, fault.ErrUnavailable) {
			t.Fatalf("oversized stream: %v, want ErrFull wrapping fault.ErrUnavailable", err)
		}
		for i := 0; i < 3; i++ {
			small := td.NewFile("small")
			if err := fill(p, small, 5<<10, 1<<10); err != nil { // 5 MB: both extents
				t.Fatalf("stream that fits, run %d: %v", i, err)
			}
			drain(t, p, small, 5<<10, 1<<10)
			small.Release()
		}
	})
	k.Run(time.Minute)
}

// Three procs run grace-join-shaped spill cycles at once, yielding to
// each other: eight build files, flushed, eight probe files, flushed,
// each pair read back, all sixteen released. Once a round has run, a
// second one finds every buffer it needs idle on the TempDB.
func TestConcurrentSpillStreamsRecycle(t *testing.T) {
	k := newKernel(t, 1)
	k.Go("t", func(p *sim.Proc) {
		td := New(vfs.NewMemFile("tempdb"))
		const parts, n, size = 8, 800, 700 // 563 KB a file: a block and a tail
		cycle := func(p *sim.Proc, name string) {
			write := func(side string) []*SpillFile {
				files := make([]*SpillFile, parts)
				for i := range files {
					files[i] = td.NewFile(fmt.Sprintf("%s-%s-%d", name, side, i))
				}
				rec := make([]byte, size)
				for i := 0; i < n; i++ {
					for j := range rec {
						rec[j] = byte(i + j)
					}
					for _, f := range files {
						if err := f.Append(p, rec); err != nil {
							t.Error(err)
						}
					}
					if i%100 == 0 {
						p.Yield()
					}
				}
				for _, f := range files {
					if err := f.Flush(p); err != nil {
						t.Error(err)
					}
				}
				return files
			}
			build := write("build")
			probe := write("probe")
			for i := range build {
				drain(t, p, build[i], n, size)
				p.Yield()
				drain(t, p, probe[i], n, size)
			}
			for i := range build {
				build[i].Release()
				probe[i].Release()
			}
		}
		round := func() {
			wg := sim.NewWaitGroup(p.Kernel())
			for g := 0; g < 3; g++ {
				wg.Add(1)
				p.Kernel().Go(fmt.Sprintf("join-%d", g), func(p *sim.Proc) {
					defer wg.Done()
					cycle(p, fmt.Sprintf("join-%d", g))
				})
			}
			wg.Wait(p)
		}
		round()
		var m0, m1 runtime.MemStats
		runtime.ReadMemStats(&m0)
		round()
		runtime.ReadMemStats(&m1)
		if got := m1.TotalAlloc - m0.TotalAlloc; got >= BlockSize/4 {
			t.Errorf("second round allocated %d bytes: spill buffers are not recycled", got)
		}
		recycled(t, td)
	})
	k.Run(time.Minute)
}

// Twenty short runs, as a sort under a small grant spills them, are
// written from their one chunk each and merged with a reader open on
// every run at once: each reader reads through a chunk too, and no block
// buffer is made.
func TestShortStreamsUseChunksOnly(t *testing.T) {
	k := newKernel(t, 1)
	k.Go("t", func(p *sim.Proc) {
		td := New(vfs.NewMemFile("tempdb"))
		const runs, n, size = 20, 100, 36
		files := make([]*SpillFile, runs)
		readers := make([]*Reader, runs)
		for i := range files {
			files[i] = td.NewFile(fmt.Sprintf("run-%d", i))
			if err := fill(p, files[i], n, size); err != nil {
				t.Fatal(err)
			}
		}
		for i, f := range files {
			readers[i] = f.NewReader()
			if rec, ok, err := readers[i].Next(p); !ok || err != nil || len(rec) != size || rec[1] != 1 {
				t.Fatalf("run %d: first record %v, %v, %v", i, rec, ok, err)
			}
		}
		for _, f := range files {
			f.Release()
		}
		if td.blocks.made != 0 || td.chunks.made != runs {
			t.Errorf("%d block buffers and %d chunks made, want 0 and %d", td.blocks.made, td.chunks.made, runs)
		}
		recycled(t, td)
		// A released stream may be written again, and read to its end.
		for _, f := range files {
			if err := fill(p, f, n, size); err != nil {
				t.Fatal(err)
			}
			drain(t, p, f, n, size)
			f.Release()
		}
		recycled(t, td)
	})
	k.Run(time.Minute)
}
