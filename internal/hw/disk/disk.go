// Package disk models the local I/O subsystems of the paper's testbed
// (Table 3): a RAID-0 array of 7.2K RPM SAS spindles (4, 8 or 20 of them)
// and a SAS SLC SSD. The models charge virtual time only; the bytes of a
// "disk" file live in ordinary Go memory in the vfs layer.
//
// Calibration targets are Figures 3 and 4 of the paper:
//
//	8 KiB random reads, 20 threads:  HDD(4) ≈ 7 MB/s @ 21 ms,
//	  HDD(8) ≈ 15 MB/s @ 13 ms, HDD(20) ≈ 40 MB/s @ 8 ms, SSD ≈ 240 MB/s @ 624 µs
//	512 KiB sequential reads, 5 threads: HDD(4) ≈ 0.36 GB/s, HDD(8) ≈ 0.76 GB/s,
//	  HDD(20) ≈ 1.76 GB/s, SSD ≈ 0.39 GB/s @ 6.3 ms
//
// See disk/calibrate_test.go for the assertions.
package disk

import (
	"time"

	"remotedb/internal/sim"
)

// Device is anything that can charge virtual time for an I/O. Offsets let
// the model distinguish sequential from random access.
type Device interface {
	// Read charges the time for reading size bytes at off.
	Read(p *sim.Proc, off, size int64)
	// Write charges the time for writing size bytes at off.
	Write(p *sim.Proc, off, size int64)
	// Name identifies the device in stats output.
	Name() string
}

// Spindle models one rotating disk: a single actuator (Resource of
// capacity 1), uniform-random positioning cost for non-sequential
// accesses, and a media transfer rate. A small "track cache" of recent
// request end offsets lets interleaved sequential streams (SQLIO's five
// reader threads, the engine's scan and write-back streams) still be
// recognized as sequential, standing in for NCQ and drive read-ahead.
type Spindle struct {
	k        *sim.Kernel
	actuator *sim.Resource

	seekMin, seekMax time.Duration
	bytesPerSec      float64
	trackCache       []int64 // recent end offsets, newest last
	cacheSize        int

	Reads, Writes      int64
	BytesRead, Written int64
	SeqHits, SeqMisses int64
}

// SpindleConfig parameterizes a spindle.
type SpindleConfig struct {
	SeekMin     time.Duration // fastest random positioning (seek + rotate)
	SeekMax     time.Duration // slowest random positioning
	BytesPerSec float64       // media transfer rate
	TrackCache  int           // number of stream tails remembered
}

// DefaultSpindleConfig matches a 7.2K RPM near-line SAS drive as measured
// by the paper: ~4.2 ms mean positioning, ~90 MB/s media rate.
func DefaultSpindleConfig() SpindleConfig {
	return SpindleConfig{
		SeekMin:     2200 * time.Microsecond,
		SeekMax:     5200 * time.Microsecond,
		BytesPerSec: 90e6,
		TrackCache:  16,
	}
}

// NewSpindle creates one disk spindle.
func NewSpindle(k *sim.Kernel, name string, cfg SpindleConfig) *Spindle {
	if cfg.TrackCache <= 0 {
		cfg.TrackCache = 16
	}
	return &Spindle{
		k:           k,
		actuator:    sim.NewResource(k, name, 1),
		seekMin:     cfg.SeekMin,
		seekMax:     cfg.SeekMax,
		bytesPerSec: cfg.BytesPerSec,
		cacheSize:   cfg.TrackCache,
	}
}

func (s *Spindle) sequential(off int64) bool {
	for i, end := range s.trackCache {
		if end == off {
			// Refresh this stream to most-recently-used.
			s.trackCache = append(s.trackCache[:i], s.trackCache[i+1:]...)
			return true
		}
	}
	return false
}

func (s *Spindle) remember(end int64) {
	s.trackCache = append(s.trackCache, end)
	if len(s.trackCache) > s.cacheSize {
		s.trackCache = s.trackCache[1:]
	}
}

func (s *Spindle) access(p *sim.Proc, off, size int64) {
	s.actuator.Acquire(p, 1)
	svc := time.Duration(float64(size) / s.bytesPerSec * 1e9)
	if s.sequential(off) {
		s.SeqHits++
	} else {
		s.SeqMisses++
		span := int64(s.seekMax - s.seekMin)
		svc += s.seekMin + time.Duration(p.Rand().Int63n(span))
	}
	s.remember(off + size)
	p.Sleep(svc)
	s.actuator.Release(1)
}

// Read charges one read.
func (s *Spindle) Read(p *sim.Proc, off, size int64) {
	s.Reads++
	s.BytesRead += size
	s.access(p, off, size)
}

// Write charges one write.
func (s *Spindle) Write(p *sim.Proc, off, size int64) {
	s.Writes++
	s.Written += size
	s.access(p, off, size)
}

// HDDArray is a RAID-0 stripe set over N spindles, mirroring the paper's
// Dell PERC H710P setup. An I/O is split at stripe-unit boundaries and
// the chunks are serviced in parallel on their spindles; the caller's
// latency is the slowest chunk.
type HDDArray struct {
	k          *sim.Kernel
	name       string
	spindles   []*Spindle
	stripeUnit int64
}

// HDDArrayConfig parameterizes the array.
type HDDArrayConfig struct {
	Spindles   int
	StripeUnit int64 // bytes per stripe unit; 64 KiB default
	Spindle    SpindleConfig
}

// DefaultHDDArrayConfig returns the paper's default of 20 spindles.
func DefaultHDDArrayConfig(spindles int) HDDArrayConfig {
	return HDDArrayConfig{
		Spindles:   spindles,
		StripeUnit: 64 << 10,
		Spindle:    DefaultSpindleConfig(),
	}
}

// NewHDDArray creates a RAID-0 array.
func NewHDDArray(k *sim.Kernel, name string, cfg HDDArrayConfig) *HDDArray {
	if cfg.Spindles <= 0 {
		panic("disk: array needs at least one spindle")
	}
	if cfg.StripeUnit <= 0 {
		cfg.StripeUnit = 64 << 10
	}
	a := &HDDArray{k: k, name: name, stripeUnit: cfg.StripeUnit}
	for i := 0; i < cfg.Spindles; i++ {
		a.spindles = append(a.spindles, NewSpindle(k, name, cfg.Spindle))
	}
	return a
}

// Name returns the array's name.
func (a *HDDArray) Name() string { return a.name }

// chunk is one stripe-unit-aligned piece of an I/O.
type chunk struct {
	spindle int
	off     int64 // offset within the spindle
	size    int64
}

func (a *HDDArray) split(off, size int64) []chunk {
	var out []chunk
	n := int64(len(a.spindles))
	for size > 0 {
		stripe := off / a.stripeUnit
		within := off % a.stripeUnit
		take := a.stripeUnit - within
		if take > size {
			take = size
		}
		out = append(out, chunk{
			spindle: int(stripe % n),
			off:     (stripe/n)*a.stripeUnit + within,
			size:    take,
		})
		off += take
		size -= take
	}
	return out
}

func (a *HDDArray) access(p *sim.Proc, off, size int64, write bool) {
	chunks := a.split(off, size)
	FanOut(p, "raid-chunk", len(chunks), func(cp *sim.Proc, i int) {
		c := chunks[i]
		if write {
			a.spindles[c.spindle].Write(cp, c.off, c.size)
		} else {
			a.spindles[c.spindle].Read(cp, c.off, c.size)
		}
	})
}

// FanOut runs fn(i) for every i in [0, n) on its own proc, so the parts
// of one I/O queue at their devices together, and waits for all of them;
// a single part runs inline on p.
func FanOut(p *sim.Proc, name string, n int, fn func(cp *sim.Proc, i int)) {
	if n == 1 {
		fn(p, 0)
		return
	}
	wg := sim.NewWaitGroup(p.Kernel())
	wg.Add(n)
	for i := 0; i < n; i++ {
		p.Kernel().Go(name, func(cp *sim.Proc) {
			fn(cp, i)
			wg.Done()
		})
	}
	wg.Wait(p)
}

// Read charges a (possibly striped) read.
func (a *HDDArray) Read(p *sim.Proc, off, size int64) { a.access(p, off, size, false) }

// Write charges a (possibly striped) write.
func (a *HDDArray) Write(p *sim.Proc, off, size int64) { a.access(p, off, size, true) }

// Stats sums per-spindle counters.
func (a *HDDArray) Stats() (reads, writes, bytesRead, bytesWritten int64) {
	for _, s := range a.spindles {
		reads += s.Reads
		writes += s.Writes
		bytesRead += s.BytesRead
		bytesWritten += s.Written
	}
	return
}

// SSD models the paper's SAS SLC SSD: a command stage with limited
// internal parallelism (flash channels) plus a shared media bandwidth
// regulator. Random small I/O is command-limited (~30K IOPS); large
// sequential I/O is bandwidth-limited (~400 MB/s).
type SSD struct {
	k        *sim.Kernel
	name     string
	commands *sim.Resource
	media    *sim.Regulator
	cmdTime  time.Duration

	Reads, Writes      int64
	BytesRead, Written int64
}

// SSDConfig parameterizes the SSD model.
type SSDConfig struct {
	Channels    int           // concurrent commands
	CommandTime time.Duration // per-command flash access time
	BytesPerSec float64       // media bandwidth
}

// DefaultSSDConfig matches the paper's 400 GB SAS SLC drive.
func DefaultSSDConfig() SSDConfig {
	return SSDConfig{Channels: 8, CommandTime: 240 * time.Microsecond, BytesPerSec: 400e6}
}

// NewSSD creates an SSD.
func NewSSD(k *sim.Kernel, name string, cfg SSDConfig) *SSD {
	return &SSD{
		k:        k,
		name:     name,
		commands: sim.NewResource(k, name+"/cmd", cfg.Channels),
		media:    sim.NewRegulator(k, name+"/media", cfg.BytesPerSec),
		cmdTime:  cfg.CommandTime,
	}
}

// Name returns the device name.
func (d *SSD) Name() string { return d.name }

func (d *SSD) access(p *sim.Proc, size int64) {
	d.commands.Acquire(p, 1)
	p.Sleep(d.cmdTime)
	done := d.media.Reserve(int(size))
	d.commands.Release(1)
	p.SleepUntil(done)
}

// Read charges one read.
func (d *SSD) Read(p *sim.Proc, off, size int64) {
	d.Reads++
	d.BytesRead += size
	d.access(p, size)
}

// Write charges one write.
func (d *SSD) Write(p *sim.Proc, off, size int64) {
	d.Writes++
	d.Written += size
	d.access(p, size)
}

// NullDevice charges no time at all; it models data already in local RAM
// (the Local Memory design) at the device layer.
type NullDevice struct{ DeviceName string }

// Name returns the device name.
func (n NullDevice) Name() string { return n.DeviceName }

// Read charges nothing.
func (NullDevice) Read(p *sim.Proc, off, size int64) {}

// Write charges nothing.
func (NullDevice) Write(p *sim.Proc, off, size int64) {}
