// Package exp is the experiment harness: it assembles the test beds for
// the six evaluated designs of Table 5 and contains one runner per table
// and figure of the paper's evaluation (Sections 6 and Appendix B). The
// bench targets in the repository root call these runners.
package exp

import (
	"fmt"
	"time"

	"remotedb/internal/broker"
	"remotedb/internal/broker/metastore"
	"remotedb/internal/cluster"
	"remotedb/internal/core"
	"remotedb/internal/engine"
	"remotedb/internal/engine/page"
	"remotedb/internal/hw/nic"
	"remotedb/internal/rmem"
	"remotedb/internal/sim"
	"remotedb/internal/vfs"
)

// Design is one evaluated alternative (Table 5).
type Design int

// The six designs of Table 5.
const (
	DesignHDD Design = iota
	DesignHDDSSD
	DesignSMB
	DesignSMBDirect
	DesignCustom
	DesignLocalMemory
)

// AllDesigns lists the designs in the paper's presentation order.
var AllDesigns = []Design{
	DesignHDD, DesignHDDSSD, DesignSMB, DesignSMBDirect, DesignCustom, DesignLocalMemory,
}

// RemoteDesigns are the three designs that use remote memory.
var RemoteDesigns = []Design{DesignSMB, DesignSMBDirect, DesignCustom}

func (d Design) String() string {
	switch d {
	case DesignHDD:
		return "HDD"
	case DesignHDDSSD:
		return "HDD+SSD"
	case DesignSMB:
		return "SMB+RamDrive"
	case DesignSMBDirect:
		return "SMBDirect+RamDrive"
	case DesignCustom:
		return "Custom"
	case DesignLocalMemory:
		return "Local Memory"
	}
	return "unknown"
}

// Remote reports whether the design uses remote memory.
func (d Design) Remote() bool {
	return d == DesignSMB || d == DesignSMBDirect || d == DesignCustom
}

func (d Design) protocol() nic.Protocol {
	switch d {
	case DesignSMB:
		return nic.ProtoSMB
	case DesignSMBDirect:
		return nic.ProtoSMBDirect
	default:
		return nic.ProtoRDMA
	}
}

// BedConfig sizes one test bed. All byte quantities are the paper's
// scaled 1000x down (Table 4). The bed's own geometry sits beside the
// configs of the layers it builds; NewBed hands those to the layers
// after filling in what the design and the geometry decide.
type BedConfig struct {
	Design        Design
	Spindles      int   // HDD RAID width (paper default: 20)
	LocalMemBytes int64 // DB server buffer pool memory
	BPExtBytes    int64 // extension size; 0 disables
	TempBytes     int64 // TempDB capacity (remote designs lease this much)
	RemoteServers int   // memory servers contributing MRs
	MRBytes       int   // memory-region size
	OLTP          bool  // analytics workloads disable the SSD BPExt (Section 5.3)

	// ExpireEvery starts the broker's expiry sweep at this cadence
	// (0 leaves the sweep off).
	ExpireEvery time.Duration
	// BrokerShards shards the broker's lease space across this many
	// replicas (0 or 1 keeps a single shard).
	BrokerShards int

	FS     core.Config   // remote designs' file system
	Broker broker.Config // remote designs' lease service
	Engine engine.Config // the database engine and its buffer pool
}

// DefaultBedConfig mirrors the paper's default hardware (Table 3) with
// RangeScan sizing (Table 4): 32 MB local memory, 128 MB BPExt, 8 MB
// TempDB. The layer configs are each package's defaults; the engine's
// frame count and grant are left for NewBed to derive.
func DefaultBedConfig(d Design) BedConfig {
	return BedConfig{
		Design:        d,
		Spindles:      20,
		LocalMemBytes: 32 << 20,
		BPExtBytes:    128 << 20,
		TempBytes:     8 << 20,
		RemoteServers: 1,
		MRBytes:       8 << 20,
		OLTP:          true,
		FS:            core.DefaultConfig(),
		Broker:        broker.DefaultConfig(),
		Engine:        engine.DefaultConfig(0),
	}
}

// EngineConfig returns cfg.Engine for a pool of frames pages: the frame
// count, the grant when none is set (a quarter of the pool), and the
// per-query budget, which is the file system's DeadlineBudget.
func (cfg BedConfig) EngineConfig(frames int) engine.Config {
	ecfg := cfg.Engine
	ecfg.Buffer.Frames = frames
	if ecfg.Grant == 0 {
		ecfg.Grant = engine.DefaultConfig(frames).Grant
	}
	ecfg.Budget = cfg.FS.DeadlineBudget
	return ecfg
}

// Bed is one assembled test bed.
type Bed struct {
	K       *sim.Kernel
	Cfg     BedConfig
	DB      *cluster.Server
	Mems    []*cluster.Server
	Store   *metastore.Store
	Broker  *broker.Cluster
	Proxies []*broker.Proxy
	FS      *core.FS
	Eng     *engine.Engine

	TempFile  vfs.File
	BPExtFile vfs.File

	// snaps holds frame snapshots recorded by FaultStaleSnapshot for
	// later resurrection by FaultStaleRestore.
	snaps map[frameSnap][]byte
}

// serverConfig returns the Table 3 server scaled down.
func serverConfig(spindles int) cluster.Config {
	cfg := cluster.DefaultConfig()
	cfg.Spindles = spindles
	cfg.MemoryBytes = 384 << 20
	return cfg
}

// NewBed assembles a bed inside the running simulation process p. It
// passes cfg's layer configs through, overriding only what the design
// or the geometry decides:
//   - the file system's protocol and the rmem client's access mode;
//   - the engine's frame count (LocalMemBytes, plus the remote memory's
//     worth for the Local Memory design), its extension slots
//     (BPExtBytes) and its semantic-cache file factory;
//   - the grant when none is set, and the per-query budget (see
//     EngineConfig);
//   - with recovery on, the file system's default salvage (wireSalvage).
func NewBed(p *sim.Proc, cfg BedConfig) (*Bed, error) {
	k := p.Kernel()
	bed := &Bed{K: k, Cfg: cfg}
	bed.DB = cluster.NewServer(k, "db1", serverConfig(cfg.Spindles))

	// Effective local memory: the Local Memory design gets the remote
	// memory's worth locally (Section 5.3).
	localBytes := cfg.LocalMemBytes
	if cfg.Design == DesignLocalMemory {
		localBytes += cfg.BPExtBytes + cfg.TempBytes
	}
	frames := int(localBytes / page.Size)

	// Remote side.
	var tempFile, bpextFile vfs.File
	if cfg.Design.Remote() {
		store := metastore.New(k, 10*time.Microsecond)
		bed.Store = store
		b := broker.NewCluster(p, store, cfg.BrokerShards, cfg.Broker)
		bed.Broker = b
		if cfg.ExpireEvery > 0 {
			k.Go("broker-expire", func(ep *sim.Proc) { b.ExpireLoop(ep, cfg.ExpireEvery) })
		}
		repl := cfg.FS.Replication
		if repl < 1 {
			repl = 1
		}
		// With integrity framing each MR holds slightly less than
		// MRBytes of logical data (the per-block trailers), and each
		// stripe is leased on repl distinct donors, so size the donor
		// pool for the framed capacity times the replication factor.
		stripeCap := int64(cfg.MRBytes)
		if cfg.FS.Integrity || repl > 1 {
			stripeCap = core.StripeCapacity(cfg.MRBytes, 0)
		}
		servers := cfg.RemoteServers
		if servers < repl {
			servers = repl // anti-affinity needs at least K donors
		}
		stripes := (cfg.TempBytes + stripeCap - 1) / stripeCap
		stripes += (cfg.BPExtBytes + stripeCap - 1) / stripeCap
		mrsTotal := stripes * int64(repl)
		mrs := int((mrsTotal+int64(servers)-1)/int64(servers)) + 4
		for i := 0; i < servers; i++ {
			m := cluster.NewServer(k, fmt.Sprintf("mem%d", i+1), serverConfig(cfg.Spindles))
			bed.Mems = append(bed.Mems, m)
			px, err := b.AddProxy(p, m, cfg.MRBytes, mrs)
			if err != nil {
				return nil, err
			}
			bed.Proxies = append(bed.Proxies, px)
		}
		clientCfg := rmem.DefaultClientConfig()
		if cfg.Design != DesignCustom {
			clientCfg.Mode = rmem.AccessAsync
		}
		client := rmem.NewClient(p, bed.DB, clientCfg)
		fsCfg := cfg.FS
		fsCfg.Protocol = cfg.Design.protocol()
		bed.FS = core.NewFS(p, b, client, fsCfg)

		if cfg.TempBytes > 0 {
			f, err := bed.FS.Create(p, "tempdb", cfg.TempBytes)
			if err != nil {
				return nil, err
			}
			if err := f.OpenConn(p); err != nil {
				return nil, err
			}
			tempFile = f
		}
		if cfg.BPExtBytes > 0 {
			f, err := bed.FS.Create(p, "bpext", cfg.BPExtBytes)
			if err != nil {
				return nil, err
			}
			if err := f.OpenConn(p); err != nil {
				return nil, err
			}
			bpextFile = f
		}
	} else {
		switch cfg.Design {
		case DesignHDD:
			tempFile = vfs.NewDeviceFile("tempdb", bed.DB.HDD)
		case DesignHDDSSD, DesignLocalMemory:
			tempFile = vfs.NewDeviceFile("tempdb", bed.DB.SSD)
		}
		if cfg.Design == DesignHDDSSD && cfg.OLTP && cfg.BPExtBytes > 0 {
			bpextFile = vfs.NewDeviceFile("bpext", bed.DB.SSD)
		}
	}
	bed.TempFile = tempFile
	bed.BPExtFile = bpextFile

	ecfg := cfg.EngineConfig(frames)
	if bpextFile != nil {
		ecfg.BPExtSlots = int(cfg.BPExtBytes / page.Size)
	}
	if cfg.Design.Remote() {
		ecfg.SemCache = func(p *sim.Proc, name string, size int64) (vfs.File, error) {
			f, err := bed.FS.Create(p, "semcache-"+name, size)
			if err != nil {
				return nil, err
			}
			return f, f.OpenConn(p)
		}
	} else {
		ecfg.SemCache = func(p *sim.Proc, name string, size int64) (vfs.File, error) {
			return vfs.NewDeviceFile("semcache-"+name, bed.DB.SSD), nil
		}
	}

	files := engine.Files{
		Data:  vfs.NewDeviceFile("data", bed.DB.HDD),
		Log:   vfs.NewDeviceFile("log", bed.DB.HDD),
		Temp:  tempFile,
		BPExt: bpextFile,
	}
	eng, err := engine.New(p, bed.DB, files, ecfg)
	if err != nil {
		return nil, err
	}
	bed.Eng = eng
	if cfg.Design.Remote() && cfg.FS.Recover {
		bed.wireSalvage()
	}
	return bed, nil
}

// wireSalvage connects the engine's remote-memory consumers to the FS's
// restripe recovery. After a lost stripe is re-leased:
//   - the buffer-pool extension forgets the page mappings of the lost
//     range (every cached page was clean, so dropping them is a complete
//     recovery) and revives the tier if it was disabled;
//   - a semantic-cache entry whose file was hit is rebuilt in place from
//     its checkpoint snapshot plus WAL REDO replay (§6.3).
//
// TempDB deliberately gets no salvage: spill data is transient, and the
// queries that owned it have already seen the degraded-mode error.
func (bed *Bed) wireSalvage() {
	if f, ok := bed.BPExtFile.(*core.File); ok {
		f.SetSalvage(func(p *sim.Proc, cf *core.File, off, n int64) error {
			if ext := bed.Eng.BP.Extension(); ext != nil {
				ext.InvalidateRange(off, n)
				ext.Revive()
			}
			return nil
		})
	}
	// Semantic-cache files are created later (at Build time), so they
	// inherit the FS-wide default salvage installed here.
	bed.FS.Salvage = func(p *sim.Proc, cf *core.File, off, n int64) error {
		if bed.Eng == nil || bed.Eng.Cache == nil {
			return nil
		}
		_, err := bed.Eng.Cache.SalvageFile(p, cf.Name())
		return err
	}
}

// Close tears the bed down: it stops the engine's background machinery
// and closes all remote files (ending their lease-renewal processes) so
// the simulation's event queue can drain promptly. Every experiment
// runner must call it when done.
func (bed *Bed) Close(p *sim.Proc) {
	if bed.Eng != nil {
		bed.Eng.Shutdown()
	}
	if bed.Broker != nil {
		bed.Broker.StopExpireLoop()
	}
	if bed.FS != nil {
		bed.FS.CloseAll(p)
	}
}

// RunInSim is the standard experiment wrapper: it creates a kernel,
// runs fn as the root process, drives the simulation to completion
// (bounded by limit to catch runaway experiments), and closes the kernel
// so background procs still parked at the end (heartbeats, scrubbers,
// writers) unwind and release the bed they reference.
func RunInSim(seed int64, limit time.Duration, fn func(p *sim.Proc) error) error {
	k := sim.New(seed)
	defer k.Close()
	var err error
	k.Go("experiment", func(p *sim.Proc) {
		err = fn(p)
	})
	k.Run(limit)
	return err
}
