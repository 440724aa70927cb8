// Package remotedb is a faithful, laptop-scale reproduction of
// "Accelerating Relational Databases by Leveraging Remote Memory and
// RDMA" (Li, Das, Syamala, Narasayya — SIGMOD 2016).
//
// It provides, against a deterministic discrete-event-simulated cluster:
//
//   - the paper's lightweight file API over remote memory (Table 2),
//     backed by a broker of leased memory regions accessed through
//     calibrated RDMA / SMB Direct / SMB transport models;
//   - a from-scratch mini-RDBMS (buffer pool with extension, B-link
//     trees, spilling hash join and external sort, WAL, semantic cache,
//     buffer-pool priming) whose storage placement reproduces the six
//     designs of Table 5;
//   - the paper's workloads (SQLIO, RangeScan, Hash+Sort, and TPC-H /
//     TPC-DS / TPC-C stand-ins) and one experiment runner per evaluation
//     table and figure.
//
// This package is the public facade: it re-exports the pieces a user
// composes (simulation kernel, cluster, broker, remote file system,
// engine, workloads, experiment runners) without exposing every
// internal module. The runnable entry points are:
//
//	examples/quickstart      — remote file API end to end
//	examples/bpext           — buffer-pool extension scenario
//	examples/hashsort        — TempDB spill scenario
//	examples/semcache        — semantic cache + recovery
//	examples/priming         — buffer-pool priming scenario
//	examples/parallelload    — Appendix C parallel loading
//	cmd/rmbench              — regenerate any table/figure of the paper
package remotedb

import (
	"time"

	"remotedb/internal/broker"
	"remotedb/internal/broker/metastore"
	"remotedb/internal/cluster"
	"remotedb/internal/core"
	"remotedb/internal/engine"
	"remotedb/internal/engine/catalog"
	"remotedb/internal/engine/exec"
	"remotedb/internal/engine/plan"
	"remotedb/internal/exp"
	"remotedb/internal/hw/nic"
	"remotedb/internal/rmem"
	"remotedb/internal/sim"
	"remotedb/internal/vfs"
)

// Simulation kernel.
type (
	// Kernel is the deterministic discrete-event simulator everything
	// runs on.
	Kernel = sim.Kernel
	// Proc is a simulation process.
	Proc = sim.Proc
)

// NewKernel creates a simulation kernel with the given RNG seed. Call
// its Close after the last Run: procs still parked then (heartbeats,
// background writers) unwind instead of pinning everything they built.
func NewKernel(seed int64) *Kernel { return sim.New(seed) }

// Cluster building blocks.
type (
	// Server is one machine: cores, memory, disks, NIC.
	Server = cluster.Server
	// ServerConfig parameterizes a server.
	ServerConfig = cluster.Config
	// Cluster is a set of servers.
	Cluster = cluster.Cluster
)

// NewCluster creates an empty cluster on k.
func NewCluster(k *Kernel) *Cluster { return cluster.New(k) }

// DefaultServerConfig returns the paper's server (Table 3), scaled.
func DefaultServerConfig() ServerConfig { return cluster.DefaultConfig() }

// Memory brokering.
type (
	// RequestSpec describes one lease request (holder, count,
	// placement, avoid set, tenant, priority).
	RequestSpec = broker.RequestSpec
	// BrokerCluster is the memory broker: it grants leases on remote
	// memory regions, sharding the lease space across one or more broker
	// replicas; StartBroker returns one.
	BrokerCluster = broker.Cluster
	// Lease is exclusive access to one memory region.
	Lease = broker.Lease
	// Proxy is the memory-donor process on a server.
	Proxy = broker.Proxy
	// MetaStore is the ZooKeeper-style coordination service.
	MetaStore = metastore.Store
)

// NewMetaStore creates the coordination service (rpcCost per operation).
func NewMetaStore(k *Kernel, rpcCost time.Duration) *MetaStore {
	return metastore.New(k, rpcCost)
}

// Remote memory and transports.
type (
	// Protocol selects RDMA (Custom), SMB Direct, or SMB over TCP.
	Protocol = nic.Protocol
	// RemoteClient is the database-server side of the RDMA plumbing.
	RemoteClient = rmem.Client
	// RemoteClientConfig parameterizes it.
	RemoteClientConfig = rmem.ClientConfig
)

// The three access protocols of Table 5.
const (
	ProtoRDMA      = nic.ProtoRDMA
	ProtoSMBDirect = nic.ProtoSMBDirect
	ProtoSMB       = nic.ProtoSMB
)

// NewRemoteClient creates the client-side RDMA state (staging buffers).
func NewRemoteClient(p *Proc, server *Server, cfg RemoteClientConfig) *RemoteClient {
	return rmem.NewClient(p, server, cfg)
}

// DefaultRemoteClientConfig mirrors Section 4.2 (sync access,
// preregistered staging, 8 schedulers x 128 slots).
func DefaultRemoteClientConfig() RemoteClientConfig { return rmem.DefaultClientConfig() }

// The lightweight file API (the paper's core contribution).
type (
	// RemoteFS creates and opens remote-memory files.
	RemoteFS = core.FS
	// RemoteFile is a file striped over leased remote memory regions.
	RemoteFile = core.File
	// File is the storage interface every engine component consumes.
	File = vfs.File
)

// NewMemFile creates a local-RAM file (no simulated I/O cost).
func NewMemFile(name string) File { return vfs.NewMemFile(name) }

// The database engine.
type (
	// Engine is the mini-RDBMS.
	Engine = engine.Engine
	// EngineConfig parameterizes it.
	EngineConfig = engine.Config
	// EngineFiles places each storage component (Table 5 wiring).
	EngineFiles = engine.Files
)

// The query layer: build queries with the fluent plan.Builder
// (remotedb.Scan(t).Where(name, cols, fn).GroupBy(...)), then run them
// through the engine's Planner, which normalizes the plan, reuses cached
// optimization decisions (plan cache), and streams results row by row.
// A Where predicate names the columns it reads and is handed a tuple of
// exactly those: from that the planner works out which columns each
// scan decodes and each join and spill carries, while the query's own
// result keeps every column.
type (
	// QueryBuilder composes a logical query plan.
	QueryBuilder = plan.Builder
	// Planner caches plans and lowers them to executor trees.
	Planner = plan.Planner
	// Rows is the streaming result iterator.
	Rows = exec.Rows
)

// Scan starts a query over a whole table in PK order.
func Scan(t *Table) *QueryBuilder { return plan.Scan(t) }

// ScanRange starts a query over a PK range [from, to). The bounds are
// plan parameters: queries differing only in bounds share a cached plan.
func ScanRange(t *Table, from, to []byte) *QueryBuilder { return plan.ScanRange(t, from, to) }

// CmpOp is a comparison operator for QueryBuilder.WhereCmp — the
// predicate form the optimizer can push to the donors (WithPushdown).
type CmpOp = plan.CmpOp

// The comparison operators.
const (
	CmpEQ = plan.CmpEQ
	CmpNE = plan.CmpNE
	CmpLT = plan.CmpLT
	CmpLE = plan.CmpLE
	CmpGT = plan.CmpGT
	CmpGE = plan.CmpGE
)

// Table is a clustered table with optional secondary indexes.
type Table = catalog.Table

// Experiment harness (one runner per table/figure; see EXPERIMENTS.md).
type (
	// Design is one evaluated alternative of Table 5.
	Design = exp.Design
	// Bed is an assembled design: cluster + broker + engine.
	Bed = exp.Bed
)

// The six designs of Table 5.
const (
	DesignHDD         = exp.DesignHDD
	DesignHDDSSD      = exp.DesignHDDSSD
	DesignSMB         = exp.DesignSMB
	DesignSMBDirect   = exp.DesignSMBDirect
	DesignCustom      = exp.DesignCustom
	DesignLocalMemory = exp.DesignLocalMemory
)

// RunInSim creates a kernel, runs fn as the root simulation process and
// drives the clock until fn (and everything it spawned) finishes or the
// limit is hit, then closes the kernel so procs still parked unwind. A
// kernel made with NewKernel is closed by its owner (Kernel.Close).
func RunInSim(seed int64, limit time.Duration, fn func(p *Proc) error) error {
	return exp.RunInSim(seed, limit, fn)
}
