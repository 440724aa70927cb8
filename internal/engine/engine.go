// Package engine assembles the mini-RDBMS: buffer pool (+ optional
// BPExt), catalog, TempDB, write-ahead log, semantic cache, and the
// device-aware cost model. The storage placement of each piece is a
// vfs.File chosen by the caller, which is how the evaluated designs of
// Table 5 (HDD, HDD+SSD, the two RamDrive variants, Custom, Local
// Memory) are assembled without engine changes.
package engine

import (
	"time"

	"remotedb/internal/cluster"
	"remotedb/internal/engine/buffer"
	"remotedb/internal/engine/catalog"
	"remotedb/internal/engine/exec"
	"remotedb/internal/engine/opt"
	"remotedb/internal/engine/plan"
	"remotedb/internal/engine/semcache"
	"remotedb/internal/engine/tempdb"
	"remotedb/internal/engine/txn"
	"remotedb/internal/rmem"
	"remotedb/internal/sim"
	"remotedb/internal/vfs"
)

// SemCacheFactory creates the backing file for one semantic-cache
// entry — the knob that points the cache at remote memory, SSD, or HDD.
type SemCacheFactory = semcache.FileFactory

// Files names the storage placement of each engine component.
type Files struct {
	Data  vfs.File // base tables and indexes
	Log   vfs.File // write-ahead log
	Temp  vfs.File // TempDB spill space
	BPExt vfs.File // buffer-pool extension (nil disables)
}

// Config parameterizes the engine.
type Config struct {
	BPExtSlots int           // extension capacity in pages (ignored if no BPExt file)
	Grant      int64         // per-query memory grant (admission control)
	Buffer     buffer.Config // the pool: frame count, eviction, batched I/O, readahead
	CPU        exec.CPUProfile
	SemCache   semcache.FileFactory // nil: semantic cache disabled
	// DOP is the per-query degree of parallelism offered to the
	// planner (0 = default 4, following SQL Server's parallel-by-default
	// analytic plans).
	DOP int
	// Pushdown lets the planner place pushable scans at the donors
	// holding a table's remote segment (see BuildPushSegment) and lets
	// spilled hash joins probe remote hash tables.
	Pushdown bool
	// Budget is the per-query remote-I/O deadline budget stamped on
	// each query's proc by exec.Open (0 = none; see exec.Ctx.Budget).
	Budget time.Duration
}

// DefaultConfig sizes the pool to frames pages with standard costs.
func DefaultConfig(frames int) Config {
	return Config{
		Grant:  int64(frames) * 8192 / 4, // quarter of the pool per query
		Buffer: buffer.DefaultConfig(frames),
		CPU:    exec.DefaultCPUProfile(),
	}
}

// Engine is one database instance on one server.
type Engine struct {
	Server  *cluster.Server
	BP      *buffer.Pool
	Catalog *catalog.Catalog
	Temp    *tempdb.TempDB
	Log     *txn.LogManager
	Cache   *semcache.Cache
	Cost    *opt.Model
	Planner *plan.Planner
	CPU     exec.CPUProfile
	Grant   int64
	DOP     int
	Budget  time.Duration // per-query remote-I/O deadline budget (0 = none)
}

// New builds an engine on server with the given storage placement.
func New(p *sim.Proc, server *cluster.Server, files Files, cfg Config) (*Engine, error) {
	bp, err := buffer.New(p, server, files.Data, cfg.Buffer)
	if err != nil {
		return nil, err
	}
	if files.BPExt != nil && cfg.BPExtSlots > 0 {
		bp.AttachExtension(files.BPExt, cfg.BPExtSlots)
	}
	e := &Engine{
		Server:  server,
		BP:      bp,
		Catalog: catalog.New(bp),
		Temp:    tempdb.New(files.Temp),
		Log:     txn.New(server.K, files.Log),
		Cost:    opt.NewModel(),
		CPU:     cfg.CPU,
		Grant:   cfg.Grant,
		DOP:     cfg.DOP,
		Budget:  cfg.Budget,
	}
	if e.DOP == 0 {
		e.DOP = 4 // SQL Server runs analytic plans parallel by default
	}
	e.Planner = plan.NewPlanner(e.Cost, 0)
	e.Planner.Pushdown = cfg.Pushdown
	e.Cache = semcache.New(cfg.SemCache, e.Log)
	return e, nil
}

// PushStore is the storage a pushable segment is built on: a pushable
// file that also accepts writes. core.File satisfies it.
type PushStore interface {
	catalog.PushFile
	WriteAt(p *sim.Proc, b []byte, off int64) error
}

// BuildPushSegment mirrors t's rows into f as a chunk-aligned,
// length-prefixed record log in PK order and installs it as the
// table's pushable segment, enabling donor-side scan placement for the
// table. Call it after loading (the mirror is a static analytic copy;
// writes to the table do not maintain it).
func (e *Engine) BuildPushSegment(p *sim.Proc, t *catalog.Table, f PushStore) error {
	chunk := f.PushChunk()
	it, err := t.Clustered.Scan(p, nil)
	if err != nil {
		return err
	}
	defer it.Close()
	var seg []byte
	var rows int64
	for {
		pair, ok, err := it.Next(p)
		if err != nil {
			return err
		}
		if !ok {
			break
		}
		seg = rmem.AppendPushRecord(seg, pair.Val, chunk)
		rows++
	}
	seg = rmem.PadPushChunk(seg, chunk)
	if len(seg) > 0 {
		if err := f.WriteAt(p, seg, 0); err != nil {
			return err
		}
	}
	t.SetPushSegment(&catalog.PushSegment{File: f, Rows: rows, Bytes: int64(len(seg)), Chunk: chunk})
	return nil
}

// NewCtx returns a fresh execution context for one query.
func (e *Engine) NewCtx(p *sim.Proc) *exec.Ctx {
	return &exec.Ctx{
		P:      p,
		Server: e.Server,
		Temp:   e.Temp,
		Grant:  e.Grant,
		CPU:    e.CPU,
		DOP:    e.DOP,
		Budget: e.Budget,
	}
}

// Shutdown stops background machinery (the lazy writer).
func (e *Engine) Shutdown() { e.BP.StopWriter() }
