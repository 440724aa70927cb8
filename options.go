// Unified error taxonomy and functional options for the remotedb
// facade.
//
// Errors: every layer of the stack (metastore, broker, rmem transport,
// remote FS, vfs) wraps its sentinels over the five classes re-exported
// here, so callers classify failures with errors.Is against this package
// alone — errors.Is(err, remotedb.ErrUnavailable) holds whether the
// error was produced three layers down by a revoked memory region or by
// the file layer's degraded mode.
//
// Options: the With... functional options below parameterize the
// Start*/Mount*/NewTestBed constructors. Each option sets one field of
// the config of the layer that reads it, and every constructor that
// builds that layer honours it: StartBroker builds the broker,
// MountRemoteFS the remote file system, StartEngine the engine, and
// NewTestBed all three. NewTestBed overrides only what a design
// decides: the protocol, the extension slots, the semantic-cache
// factory, and, with recovery on, the salvage. An option for a layer a
// constructor does not build is ignored, so a common option set can be
// reused across calls. A zero or negative number keeps the default.
package remotedb

import (
	"time"

	"remotedb/internal/broker"
	"remotedb/internal/core"
	"remotedb/internal/engine"
	"remotedb/internal/engine/page"
	"remotedb/internal/exp"
	"remotedb/internal/fault"
	"remotedb/internal/vfs"
)

// The repository-wide error classes. Concrete layer errors wrap exactly
// one of these (via %w), so errors.Is classifies any error from any
// layer:
//
//	ErrRetryable   — transient; retrying with backoff may succeed
//	ErrRevoked     — a lease or memory region was revoked / expired
//	ErrUnavailable — backing storage is gone; fall back to base data
//	ErrNotFound    — the named object does not exist
//	ErrClosed      — the object was closed and cannot be used
//	ErrCorrupt     — stored bytes failed end-to-end integrity verification
var (
	ErrRetryable   = fault.ErrRetryable
	ErrRevoked     = fault.ErrRevoked
	ErrUnavailable = fault.ErrUnavailable
	ErrNotFound    = fault.ErrNotFound
	ErrClosed      = fault.ErrClosed
	ErrCorrupt     = fault.ErrCorrupt

	// ErrSlow marks an operation abandoned because its deadline budget
	// ran out while a donor was slow (see WithDeadlineBudget). It wraps
	// ErrRetryable: the data is intact, only this attempt was slow.
	ErrSlow = fault.ErrSlow
)

// Slow reports whether err is a blown deadline budget (wraps ErrSlow).
func Slow(err error) bool { return fault.Slow(err) }

// Retryable reports whether err is classified transient (wraps
// ErrRetryable), i.e. worth retrying with backoff.
func Retryable(err error) bool { return fault.Retryable(err) }

// RetryPolicy is the exponential-backoff-with-jitter policy used for
// transient broker/metastore failures (lease renewal, re-leasing).
type RetryPolicy = fault.RetryPolicy

// DefaultRetryPolicy retries 5 times from 1 ms, doubling, capped at
// 100 ms, with 20% jitter.
func DefaultRetryPolicy() RetryPolicy { return fault.DefaultRetryPolicy() }

// Salvage repopulates a byte range of a remote file after its stripe
// was lost and re-leased (see RemoteFile and the fault-tolerance section
// of DESIGN.md).
type Salvage = core.Salvage

// Placement chooses how leased MRs spread over memory servers.
type Placement = broker.Placement

// The two placement policies.
const (
	PlacePack   = broker.PlacePack
	PlaceSpread = broker.PlaceSpread
)

// settings is everything the option-based constructors can be told: a
// test-bed config, which carries the config of every layer beside the
// bed's own geometry. One shared struct (rather than per-constructor
// option types) keeps a single Option namespace: WithLeaseTTL works on
// StartBroker and NewTestBed alike.
type settings exp.BedConfig

// Option parameterizes the Start*/Mount*/NewTestBed constructors.
type Option func(*settings)

func apply(opts []Option) exp.BedConfig {
	s := settings(exp.DefaultBedConfig(exp.DesignCustom))
	for _, o := range opts {
		o(&s)
	}
	return exp.BedConfig(s)
}

// positive sets *dst to v unless v is zero or negative, which keeps the
// default.
func positive[T int | int64 | float64 | time.Duration](dst *T, v T) {
	if v > 0 {
		*dst = v
	}
}

// WithStripeSize sets the memory-region (stripe) size in bytes that a
// test bed's donors pin and register.
func WithStripeSize(bytes int) Option { return func(s *settings) { positive(&s.MRBytes, bytes) } }

// WithLeaseTTL sets the broker's lease time-to-live.
func WithLeaseTTL(ttl time.Duration) Option {
	return func(s *settings) { positive(&s.Broker.LeaseTTL, ttl) }
}

// WithExpirySweep starts a test bed's broker expiry sweep at the given
// cadence.
func WithExpirySweep(every time.Duration) Option {
	return func(s *settings) { positive(&s.ExpireEvery, every) }
}

// WithRetryPolicy sets the file system's backoff policy for transient
// broker and metastore failures.
func WithRetryPolicy(rp RetryPolicy) Option { return func(s *settings) { s.FS.Retry = rp } }

// WithSalvage installs the file system's default stripe-repopulation
// callback, run after a lost stripe is re-leased.
func WithSalvage(fn Salvage) Option { return func(s *settings) { s.FS.Salvage = fn } }

// WithBufferFrames sets the engine's buffer-pool size in 8 KiB frames
// (default 4096, the paper's 32 MiB).
func WithBufferFrames(frames int) Option {
	return func(s *settings) { positive(&s.LocalMemBytes, int64(frames)*page.Size) }
}

// WithBPExtSlots sets the buffer-pool extension capacity in pages
// (StartEngine needs a BPExt file in EngineFiles).
func WithBPExtSlots(slots int) Option {
	return func(s *settings) { positive(&s.Engine.BPExtSlots, slots) }
}

// WithGrant sets the engine's per-query memory grant in bytes (default a
// quarter of the buffer pool).
func WithGrant(bytes int64) Option { return func(s *settings) { positive(&s.Engine.Grant, bytes) } }

// WithProtocol selects the file system's transport (ProtoRDMA,
// ProtoSMBDirect, ProtoSMB).
func WithProtocol(proto Protocol) Option { return func(s *settings) { s.FS.Protocol = proto } }

// WithRecovery enables or disables re-lease/restripe recovery of lost
// stripes (on by default; off restores the original fail-to-disk
// behavior).
func WithRecovery(on bool) Option { return func(s *settings) { s.FS.Recover = on } }

// WithRemoteServers sets how many memory servers donate MRs to a test
// bed.
func WithRemoteServers(n int) Option { return func(s *settings) { positive(&s.RemoteServers, n) } }

// WithReplication stripes every remote file over k replicas per stripe,
// placed on distinct donors (anti-affinity). k > 1 implies integrity
// framing: reads verify each block and fail over to a healthy replica on
// corruption or revocation, with no degraded window and no salvage.
func WithReplication(k int) Option { return func(s *settings) { positive(&s.FS.Replication, k) } }

// WithIntegrity enables (or disables) checksummed block framing: every
// remote write seals each block with a CRC-32C and a generation stamp,
// and every read verifies both, so a bit flip, torn write, or stale
// replica surfaces as ErrCorrupt rather than silently wrong bytes.
// Implied by WithReplication(k>1).
func WithIntegrity(on bool) Option { return func(s *settings) { s.FS.Integrity = on } }

// WithScrubEvery starts a per-file background scrubber that sweeps one
// stripe per tick, verifying every written block on every replica and
// repairing latent corruption from a healthy copy (0 leaves scrubbing
// off). Requires integrity framing.
func WithScrubEvery(d time.Duration) Option {
	return func(s *settings) { positive(&s.FS.ScrubEvery, d) }
}

// WithBPExtBytes sets a test bed's buffer-pool extension file size in
// bytes.
func WithBPExtBytes(bytes int64) Option { return func(s *settings) { positive(&s.BPExtBytes, bytes) } }

// WithSemCache points the engine's semantic cache at a file factory
// (nil leaves the cache disabled).
func WithSemCache(factory SemCacheFactory) Option {
	return func(s *settings) { s.Engine.SemCache = factory }
}

// SemCacheFactory creates the backing file for one semantic-cache
// entry; it is how the cache is pointed at remote memory, SSD, or HDD.
type SemCacheFactory = engine.SemCacheFactory

// WithDOP sets the degree of intra-query parallelism offered to the
// planner (0 keeps the default of 4; 1 forces serial plans).
func WithDOP(n int) Option { return func(s *settings) { positive(&s.Engine.DOP, n) } }

// WithReadahead sets the buffer pool's scan readahead window in pages
// (0 keeps the default of 8).
func WithReadahead(pages int) Option {
	return func(s *settings) { positive(&s.Engine.Buffer.Readahead, pages) }
}

// WithPushdown lets the planner place pushable scans at the donors:
// once a table has a pushable segment (Engine.BuildPushSegment), the
// optimizer costs donor-side evaluation against fetch-all and a local
// scan, and the executor degrades per partition to fetch-all whenever a
// donor cannot evaluate (off by default).
func WithPushdown(on bool) Option { return func(s *settings) { s.Engine.Pushdown = on } }

// WithBrokerShards shards the broker's lease space across n replicas:
// lease IDs are strided so any lease routes back to its shard, donors
// and holders spread over shards by rendezvous hashing, and a failed
// shard hands its state to a recovered replacement without disturbing
// the others. 0 or 1 keeps a single shard.
func WithBrokerShards(n int) Option { return func(s *settings) { positive(&s.BrokerShards, n) } }

// WithHeartbeatEvery sets the file system's batched lease-heartbeat
// cadence: one renewal round trip per holder per tick covers every
// lease the holder owns (0 = half the lease TTL).
func WithHeartbeatEvery(d time.Duration) Option {
	return func(s *settings) { positive(&s.FS.HeartbeatEvery, d) }
}

// WithTenant tags the file system's lease requests with a tenant name
// for broker admission accounting (defaults to the holder's server
// name).
func WithTenant(name string) Option { return func(s *settings) { s.FS.Tenant = name } }

// WithTenantQuota caps the named tenant's leased bytes at the broker; a
// request past the cap fails with ErrQuota (non-retryable) rather than
// eating the pool. Repeat for each tenant.
func WithTenantQuota(name string, bytes int64) Option {
	return func(s *settings) {
		if s.Broker.Quotas == nil {
			s.Broker.Quotas = make(map[string]int64)
		}
		s.Broker.Quotas[name] = bytes
	}
}

// WithDeadlineBudget bounds every remote-memory transfer of the file
// system with a deadline budget: an op still in flight past the budget
// is abandoned with an error wrapping ErrRetryable (classified by Slow),
// and the access falls back to the local tier instead of riding a slow
// donor. The engine stamps the same duration on each query as its
// per-query budget, shared by every remote read the query issues.
func WithDeadlineBudget(d time.Duration) Option {
	return func(s *settings) { positive(&s.FS.DeadlineBudget, d) }
}

// WithHedging races a slow primary replica read against the next
// replica: once the primary exceeds the donor's learned p95 latency
// (see WithHedgeAfter for a fixed trigger), the same read fires at a
// second replica and the first verified frame wins. Requires
// WithReplication(k>1) to have a replica to hedge to.
func WithHedging(on bool) Option { return func(s *settings) { s.FS.Hedging = on } }

// WithHedgeAfter fixes the hedge trigger latency instead of the
// adaptive per-donor p95.
func WithHedgeAfter(d time.Duration) Option {
	return func(s *settings) { positive(&s.FS.HedgeAfter, d) }
}

// WithHedgeRateCap bounds hedged reads as a fraction of tolerant reads
// (default 0.1), so hedging cannot double wire load when the whole
// fleet slows at once.
func WithHedgeRateCap(frac float64) Option {
	return func(s *settings) { positive(&s.FS.HedgeRateCap, frac) }
}

// WithHealthChecks scores every donor (latency and error-rate EWMAs)
// and runs a three-state breaker over the scores: browned-out donors
// are read last and deprioritized for new leases (the holder's avoid
// set piggybacks on its batched heartbeat so the broker deprioritizes
// them fleet-wide), quarantined donors get their replicas proactively
// migrated to healthy donors, and probe reads let a recovered donor
// earn its way back.
func WithHealthChecks(on bool) Option { return func(s *settings) { s.FS.HealthChecks = on } }

// StartBroker creates the memory broker backed by store. One shard (the
// default) is the paper's single broker; more shards spread the lease
// space over independent replicas.
func StartBroker(p *Proc, store *MetaStore, opts ...Option) *BrokerCluster {
	s := apply(opts)
	return broker.NewCluster(p, store, s.BrokerShards, s.Broker)
}

// MountRemoteFS creates the remote file system client on the database
// server owning client. b is the broker StartBroker returned, of one
// shard or many.
func MountRemoteFS(p *Proc, b *BrokerCluster, client *RemoteClient, opts ...Option) *RemoteFS {
	return core.NewFS(p, b, client, apply(opts).FS)
}

// StartEngine assembles the mini-RDBMS on server over the given storage
// placement.
func StartEngine(p *Proc, server *Server, files EngineFiles, opts ...Option) (*Engine, error) {
	cfg := apply(opts)
	return engine.New(p, server, files, cfg.EngineConfig(int(cfg.LocalMemBytes/page.Size)))
}

// NewTestBed assembles a full test bed for one of the Table 5 designs.
func NewTestBed(p *Proc, d Design, opts ...Option) (*Bed, error) {
	cfg := apply(opts)
	cfg.Design = d
	return exp.NewBed(p, cfg)
}

// Every concrete file the facade hands out satisfies the one interface
// the engine consumes.
var (
	_ File = (*core.File)(nil)
	_ File = (*vfs.MemFile)(nil)
	_ File = (*vfs.DeviceFile)(nil)
)
