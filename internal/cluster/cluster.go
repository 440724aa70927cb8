// Package cluster models the paper's testbed (Table 3): a rack of
// identical servers — 40 logical processors, a large memory, an HDD
// RAID-0 array, an SSD, and an FDR Infiniband NIC — joined by a
// non-blocking top-of-rack switch. Servers host the database engine,
// the memory-broker proxy, and the SMB file-server stage, all sharing
// the same simulated cores so that CPU interference (Figures 11 and 13)
// emerges from the model rather than being scripted.
package cluster

import (
	"fmt"
	"time"

	"remotedb/internal/hw/disk"
	"remotedb/internal/hw/nic"
	"remotedb/internal/sim"
)

// Config parameterizes one server.
type Config struct {
	Cores       int           // logical processors (paper: 40)
	MemoryBytes int64         // RAM available to be split between local use and brokered MRs
	Quantum     time.Duration // CPU scheduling quantum for Work slicing
	CtxSwitch   time.Duration // cost to switch a thread back in after async I/O
	Spindles    int           // HDD RAID-0 width (paper: 4, 8 or 20)
	NIC         nic.Config
	SSD         disk.SSDConfig
	HDD         disk.SpindleConfig
}

// DefaultConfig returns the paper's server configuration with memory
// scaled down ~1000x (384 GB -> 384 MB) per DESIGN.md.
func DefaultConfig() Config {
	return Config{
		Cores:       40,
		MemoryBytes: 384 << 20,
		Quantum:     200 * time.Microsecond,
		CtxSwitch:   5 * time.Microsecond,
		Spindles:    20,
		NIC:         nic.DefaultConfig(),
		SSD:         disk.DefaultSSDConfig(),
		HDD:         disk.DefaultSpindleConfig(),
	}
}

// Server is one machine in the cluster.
type Server struct {
	Name string
	K    *sim.Kernel
	Cfg  Config

	cores      *sim.Resource
	NIC        *nic.NIC
	HDD        *disk.HDDArray
	SSD        *disk.SSD
	fileServer *sim.Resource // SMB / SMB Direct worker stage

	memCommitted int64 // memory committed to local processes (e.g. the buffer pool)
	memBrokered  int64 // memory pinned as MRs and leased out via the broker

	pressureSubs []func(need int64)

	serviceDelay time.Duration // injected per-transfer slowness (chaos: reclaiming/NIC-saturated donor)
}

// NewServer creates a server on kernel k.
func NewServer(k *sim.Kernel, name string, cfg Config) *Server {
	if cfg.Cores <= 0 {
		panic("cluster: server needs cores")
	}
	hddCfg := disk.HDDArrayConfig{Spindles: cfg.Spindles, StripeUnit: 64 << 10, Spindle: cfg.HDD}
	s := &Server{
		Name:       name,
		K:          k,
		Cfg:        cfg,
		cores:      sim.NewResource(k, name+"/cpu", cfg.Cores),
		NIC:        nic.New(k, name+"/nic", cfg.NIC),
		HDD:        disk.NewHDDArray(k, name+"/hdd", hddCfg),
		SSD:        disk.NewSSD(k, name+"/ssd", cfg.SSD),
		fileServer: sim.NewResource(k, name+"/smb", 4),
	}
	return s
}

// Work charges d of CPU time, acquiring cores in scheduler quanta so that
// short kernel work (SMB processing, broker RPCs) is not starved behind
// long query bursts — the FIFO-with-quanta discipline approximates the
// OS round-robin scheduler.
func (s *Server) Work(p *sim.Proc, d time.Duration) {
	q := s.Cfg.Quantum
	if q <= 0 {
		q = 200 * time.Microsecond
	}
	for d > 0 {
		slice := d
		if slice > q {
			slice = q
		}
		s.cores.Acquire(p, 1)
		p.Sleep(slice)
		s.cores.Release(1)
		d -= slice
	}
}

// WorkParallel charges d of total CPU time spread over dop cores
// concurrently (intra-query parallelism): the caller waits d/dop while
// dop cores are occupied, so server utilization accounting stays exact.
func (s *Server) WorkParallel(p *sim.Proc, d time.Duration, dop int) {
	if dop <= 1 {
		s.Work(p, d)
		return
	}
	if dop > s.Cfg.Cores {
		dop = s.Cfg.Cores
	}
	q := s.Cfg.Quantum
	if q <= 0 {
		q = 200 * time.Microsecond
	}
	each := d / time.Duration(dop)
	for each > 0 {
		slice := each
		if slice > q {
			slice = q
		}
		s.cores.Acquire(p, dop)
		p.Sleep(slice)
		s.cores.Release(dop)
		each -= slice
	}
}

// Exec holds one core while fn runs; fn may sleep on simulation
// primitives (this is how synchronous RDMA spins burn CPU during the
// transfer — Section 4.1.3 of the paper).
func (s *Server) Exec(p *sim.Proc, fn func()) {
	s.cores.Acquire(p, 1)
	fn()
	s.cores.Release(1)
}

// Reschedule charges the context-switch cost paid when an asynchronous
// I/O completion switches the issuing thread back in.
func (s *Server) Reschedule(p *sim.Proc) {
	s.Work(p, s.Cfg.CtxSwitch)
}

// FileServer returns the SMB worker stage used by the RamDrive designs.
func (s *Server) FileServer() *sim.Resource { return s.fileServer }

// SetServiceDelay injects d of extra latency into every remote-memory
// transfer served by this machine, modeling a donor that is alive but
// slow — reclaiming under memory pressure, NIC-saturated, or about to
// revoke. Zero restores normal service. The delay is consulted by the
// rmem transports on each transfer, so it applies to all clients of all
// MRs hosted here and can be flipped mid-run by chaos scenarios.
func (s *Server) SetServiceDelay(d time.Duration) {
	if d < 0 {
		d = 0
	}
	s.serviceDelay = d
}

// ServiceDelay returns the injected per-transfer slowness (0 = none).
func (s *Server) ServiceDelay() time.Duration { return s.serviceDelay }

// CPUBusyNanos returns cumulative core-nanoseconds consumed, for windowed
// utilization sampling (Figure 11b, Figure 14c).
func (s *Server) CPUBusyNanos() int64 { return s.cores.BusyNanos() }

// Cores returns the core count.
func (s *Server) Cores() int { return s.Cfg.Cores }

// --- Memory accounting -------------------------------------------------
//
// The server's RAM is split three ways: committed to local processes,
// pinned+brokered as MRs, and free. The broker's proxy may only pin free
// memory, and must give MRs back when local demand grows (the paper's
// "memory pressure notification" path).

// MemoryBrokered returns bytes pinned as brokered MRs.
func (s *Server) MemoryBrokered() int64 { return s.memBrokered }

// MemoryFree returns unpinned, uncommitted bytes.
func (s *Server) MemoryFree() int64 {
	return s.Cfg.MemoryBytes - s.memCommitted - s.memBrokered
}

// CommitLocal records n bytes newly committed to a local process. If the
// commitment cannot be satisfied from free memory, pressure subscribers
// (the broker proxy) are notified of the shortfall so they can unpin MRs.
// It returns an error if, even after notifications, memory is exhausted.
func (s *Server) CommitLocal(n int64) error {
	if n < 0 {
		panic("cluster: negative commit")
	}
	if shortfall := n - s.MemoryFree(); shortfall > 0 {
		for _, fn := range s.pressureSubs {
			fn(shortfall)
		}
	}
	if n > s.MemoryFree() {
		return fmt.Errorf("cluster: %s out of memory (want %d, free %d)", s.Name, n, s.MemoryFree())
	}
	s.memCommitted += n
	return nil
}

// ReleaseLocal returns n bytes from local commitment.
func (s *Server) ReleaseLocal(n int64) {
	if n > s.memCommitted {
		panic("cluster: releasing more than committed")
	}
	s.memCommitted -= n
}

// PinBrokered marks n bytes as pinned for brokering; fails if not free.
func (s *Server) PinBrokered(n int64) error {
	if n > s.MemoryFree() {
		return fmt.Errorf("cluster: %s cannot pin %d bytes (free %d)", s.Name, n, s.MemoryFree())
	}
	s.memBrokered += n
	return nil
}

// UnpinBrokered releases n brokered bytes back to free.
func (s *Server) UnpinBrokered(n int64) {
	if n > s.memBrokered {
		panic("cluster: unpinning more than brokered")
	}
	s.memBrokered -= n
}

// OnMemoryPressure registers a callback invoked with the shortfall when
// local commitment cannot be met from free memory.
func (s *Server) OnMemoryPressure(fn func(need int64)) {
	s.pressureSubs = append(s.pressureSubs, fn)
}

// Cluster is a set of servers on one switch, sharing a kernel.
type Cluster struct {
	K       *sim.Kernel
	Servers []*Server
	byName  map[string]*Server
}

// New creates an empty cluster.
func New(k *sim.Kernel) *Cluster {
	return &Cluster{K: k, byName: make(map[string]*Server)}
}

// AddServer creates a server and joins it to the cluster.
func (c *Cluster) AddServer(name string, cfg Config) *Server {
	if _, dup := c.byName[name]; dup {
		panic("cluster: duplicate server name " + name)
	}
	s := NewServer(c.K, name, cfg)
	c.Servers = append(c.Servers, s)
	c.byName[name] = s
	return s
}

// Server returns the named server, or nil.
func (c *Cluster) Server(name string) *Server { return c.byName[name] }
