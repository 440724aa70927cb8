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
// Start*/Mount*/NewTestBed constructors. Every constructor takes the
// same Option type and reads the fields it understands; an option that a
// constructor does not consume is simply ignored, so a common option set
// can be reused across calls.
package remotedb

import (
	"time"

	"remotedb/internal/broker"
	"remotedb/internal/core"
	"remotedb/internal/engine"
	"remotedb/internal/engine/buffer"
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

// settings collects everything the option-based constructors can be
// told. One shared struct (rather than per-constructor option types)
// keeps a single Option namespace: WithLeaseTTL works on StartBroker and
// NewTestBed alike.
type settings struct {
	stripeSize   int
	leaseTTL     time.Duration
	expireEvery  time.Duration
	retry        *RetryPolicy
	salvage      Salvage
	bufferFrames int
	bpextSlots   int
	bpextBytes   int64
	grant        int64
	protocol     *Protocol
	placement    *Placement
	autoRenew    *bool
	recover      *bool
	remoteSrvs   int
	replication  int
	integrity    *bool
	scrubEvery   time.Duration
	semCache     EngineConfig // only the SemCache field is read
	planCache    *int
	dop          int
	eviction     *EvictionPolicy
	batchedIO    *bool
	readahead    int
	pushdown     *bool
	donorPrice   float64
	brokerShards int
	hbEvery      time.Duration
	tenant       string
	quotas       map[string]int64
	budget       time.Duration
	hedging      *bool
	hedgeAfter   time.Duration
	hedgeCap     float64
	healthChecks *bool
}

// Option parameterizes the Start*/Mount*/NewTestBed constructors.
type Option func(*settings)

func apply(opts []Option) *settings {
	s := &settings{}
	for _, o := range opts {
		o(s)
	}
	return s
}

// WithStripeSize sets the memory-region (stripe) size in bytes.
// Consumed by NewTestBed (the size its donors pin and register).
func WithStripeSize(bytes int) Option { return func(s *settings) { s.stripeSize = bytes } }

// WithLeaseTTL sets the broker's lease time-to-live. Consumed by
// StartBroker and NewTestBed.
func WithLeaseTTL(ttl time.Duration) Option { return func(s *settings) { s.leaseTTL = ttl } }

// WithExpirySweep starts the broker's expiry sweep at the given cadence.
// Consumed by NewTestBed.
func WithExpirySweep(every time.Duration) Option {
	return func(s *settings) { s.expireEvery = every }
}

// WithRetryPolicy sets the backoff policy for transient broker and
// metastore failures. Consumed by MountRemoteFS and NewTestBed.
func WithRetryPolicy(rp RetryPolicy) Option { return func(s *settings) { s.retry = &rp } }

// WithSalvage installs the FS-wide default stripe-repopulation callback
// run after a lost stripe is re-leased. Consumed by MountRemoteFS.
func WithSalvage(fn Salvage) Option { return func(s *settings) { s.salvage = fn } }

// WithBufferFrames sets the engine's buffer-pool size in 8 KiB frames.
// Consumed by StartEngine.
func WithBufferFrames(frames int) Option { return func(s *settings) { s.bufferFrames = frames } }

// WithBPExtSlots sets the buffer-pool extension capacity in pages.
// Consumed by StartEngine (requires a BPExt file in EngineFiles).
func WithBPExtSlots(slots int) Option { return func(s *settings) { s.bpextSlots = slots } }

// WithGrant sets the per-query memory grant in bytes. Consumed by
// StartEngine.
func WithGrant(bytes int64) Option { return func(s *settings) { s.grant = bytes } }

// WithProtocol selects the transport (ProtoRDMA, ProtoSMBDirect,
// ProtoSMB). Consumed by MountRemoteFS.
func WithProtocol(proto Protocol) Option { return func(s *settings) { s.protocol = &proto } }

// WithPlacement selects how leased MRs spread over servers. Consumed by
// MountRemoteFS.
func WithPlacement(pl Placement) Option { return func(s *settings) { s.placement = &pl } }

// WithAutoRenew enables or disables the per-file background lease
// renewal process. Consumed by MountRemoteFS.
func WithAutoRenew(on bool) Option { return func(s *settings) { s.autoRenew = &on } }

// WithRecovery enables or disables re-lease/restripe recovery of lost
// stripes (on by default; off restores the original fail-to-disk
// behavior). Consumed by MountRemoteFS and NewTestBed.
func WithRecovery(on bool) Option { return func(s *settings) { s.recover = &on } }

// WithRemoteServers sets how many memory servers donate MRs. Consumed
// by NewTestBed.
func WithRemoteServers(n int) Option { return func(s *settings) { s.remoteSrvs = n } }

// WithReplication stripes every remote file over k replicas per stripe,
// placed on distinct donors (anti-affinity). k > 1 implies integrity
// framing: reads verify each block and fail over to a healthy replica on
// corruption or revocation, with no degraded window and no salvage.
// Consumed by MountRemoteFS and NewTestBed.
func WithReplication(k int) Option { return func(s *settings) { s.replication = k } }

// WithIntegrity enables (or disables) checksummed block framing: every
// remote write seals each block with a CRC-32C and a generation stamp,
// and every read verifies both, so a bit flip, torn write, or stale
// replica surfaces as ErrCorrupt rather than silently wrong bytes.
// Implied by WithReplication(k>1). Consumed by MountRemoteFS and
// NewTestBed.
func WithIntegrity(on bool) Option { return func(s *settings) { s.integrity = &on } }

// WithScrubEvery starts a per-file background scrubber that sweeps one
// stripe per tick, verifying every written block on every replica and
// repairing latent corruption from a healthy copy (0 leaves scrubbing
// off). Requires integrity framing. Consumed by MountRemoteFS and
// NewTestBed.
func WithScrubEvery(d time.Duration) Option { return func(s *settings) { s.scrubEvery = d } }

// WithBPExtBytes sets the buffer-pool extension file size in bytes.
// Consumed by NewTestBed.
func WithBPExtBytes(bytes int64) Option { return func(s *settings) { s.bpextBytes = bytes } }

// WithSemCache points the engine's semantic cache at a file factory
// (nil leaves the cache disabled). Consumed by StartEngine.
func WithSemCache(factory SemCacheFactory) Option {
	return func(s *settings) { s.semCache.SemCache = factory }
}

// SemCacheFactory creates the backing file for one semantic-cache
// entry; it is how the cache is pointed at remote memory, SSD, or HDD.
type SemCacheFactory = engine.SemCacheFactory

// WithPlanCache bounds the planner's plan cache to entries cached plan
// shapes (0 keeps the default of 128; negative disables plan caching,
// forcing re-optimization on every query). Consumed by StartEngine.
func WithPlanCache(entries int) Option {
	return func(s *settings) { s.planCache = &entries }
}

// WithDOP sets the degree of intra-query parallelism offered to the
// planner (0 keeps the default of 4; 1 forces serial plans). Consumed
// by StartEngine.
func WithDOP(n int) Option { return func(s *settings) { s.dop = n } }

// EvictionPolicy selects the buffer pool's page replacement policy.
type EvictionPolicy = buffer.Policy

// The two eviction policies: the cost-aware GDSF heap, whose miss cost
// is the calibrated latency of the tier a page would actually fall to
// (the default), and the legacy clock sweep kept for A/B comparisons.
const (
	EvictGDSF  = buffer.PolicyGDSF
	EvictClock = buffer.PolicyClock
)

// WithEviction selects the buffer pool's eviction policy. Consumed by
// StartEngine and NewTestBed.
func WithEviction(pol EvictionPolicy) Option {
	return func(s *settings) { s.eviction = &pol }
}

// WithBatchedIO enables or disables the buffer pool's vectored I/O
// paths: batched lazy-writer flushes, grouped extension puts, and scan
// readahead (on by default). Consumed by StartEngine and NewTestBed.
func WithBatchedIO(on bool) Option { return func(s *settings) { s.batchedIO = &on } }

// WithReadahead sets the scan readahead window in pages (0 keeps the
// default of 8; requires batched I/O). Consumed by StartEngine and
// NewTestBed.
func WithReadahead(pages int) Option { return func(s *settings) { s.readahead = pages } }

// WithPushdown lets the planner place pushable scans at the donors:
// once a table has a pushable segment (Engine.BuildPushSegment), the
// optimizer costs donor-side evaluation against fetch-all and a local
// scan, and the executor degrades per partition to fetch-all whenever a
// donor cannot evaluate (off by default). Consumed by StartEngine and
// NewTestBed.
func WithPushdown(on bool) Option { return func(s *settings) { s.pushdown = &on } }

// WithDonorCPU scales donor CPU in the placement cost model: a price
// above 1 makes donor cycles pricier than the client's, lowering the
// selectivity at which the optimizer stops pushing work to the donors
// (0 keeps the default of 1). Consumed by StartEngine and NewTestBed.
func WithDonorCPU(price float64) Option { return func(s *settings) { s.donorPrice = price } }

// WithBrokerShards shards the broker's lease space across n replicas:
// lease IDs are strided so any lease routes back to its shard, donors
// and holders spread over shards by rendezvous hashing, and a failed
// shard hands its state to a recovered replacement without disturbing
// the others. 0 or 1 keeps a single shard. Consumed by StartBroker and
// NewTestBed.
func WithBrokerShards(n int) Option { return func(s *settings) { s.brokerShards = n } }

// WithHeartbeatEvery sets the batched lease-heartbeat cadence: one
// renewal round trip per holder per tick covers every lease the holder
// owns (0 = half the lease TTL). Consumed by MountRemoteFS and
// NewTestBed.
func WithHeartbeatEvery(d time.Duration) Option { return func(s *settings) { s.hbEvery = d } }

// WithTenant tags the mounted file system's lease requests with a
// tenant name for broker admission accounting (defaults to the holder's
// server name). Consumed by MountRemoteFS.
func WithTenant(name string) Option { return func(s *settings) { s.tenant = name } }

// WithTenantQuota caps the named tenant's leased bytes at the broker; a
// request past the cap fails with ErrQuota (non-retryable) rather than
// eating the pool. Repeat for each tenant. Consumed by StartBroker and
// NewTestBed.
func WithTenantQuota(name string, bytes int64) Option {
	return func(s *settings) {
		if s.quotas == nil {
			s.quotas = make(map[string]int64)
		}
		s.quotas[name] = bytes
	}
}

// WithDeadlineBudget bounds every remote-memory transfer with a
// deadline budget: an op still in flight past the budget is abandoned
// with an error wrapping ErrRetryable (classified by Slow), and the
// access falls back to the local tier instead of riding a slow donor.
// On StartEngine the same duration is stamped on each query as its
// per-query budget, shared by every remote read the query issues.
// Consumed by MountRemoteFS, StartEngine and NewTestBed.
func WithDeadlineBudget(d time.Duration) Option { return func(s *settings) { s.budget = d } }

// WithHedging races a slow primary replica read against the next
// replica: once the primary exceeds the donor's learned p95 latency
// (see WithHedgeAfter for a fixed trigger), the same read fires at a
// second replica and the first verified frame wins. Requires
// WithReplication(k>1) to have a replica to hedge to. Consumed by
// MountRemoteFS and NewTestBed.
func WithHedging(on bool) Option { return func(s *settings) { s.hedging = &on } }

// WithHedgeAfter fixes the hedge trigger latency instead of the
// adaptive per-donor p95. Consumed by MountRemoteFS and NewTestBed.
func WithHedgeAfter(d time.Duration) Option { return func(s *settings) { s.hedgeAfter = d } }

// WithHedgeRateCap bounds hedged reads as a fraction of tolerant reads
// (default 0.1), so hedging cannot double wire load when the whole
// fleet slows at once. Consumed by MountRemoteFS and NewTestBed.
func WithHedgeRateCap(frac float64) Option { return func(s *settings) { s.hedgeCap = frac } }

// WithHealthChecks scores every donor (latency and error-rate EWMAs)
// and runs a three-state breaker over the scores: browned-out donors
// are read last and deprioritized for new leases (the holder's avoid
// set piggybacks on its batched heartbeat so the broker deprioritizes
// them fleet-wide), quarantined donors get their replicas proactively
// migrated to healthy donors, and probe reads let a recovered donor
// earn its way back. Consumed by MountRemoteFS and NewTestBed.
func WithHealthChecks(on bool) Option { return func(s *settings) { s.healthChecks = &on } }

// StartBroker creates the memory broker backed by store, configured by
// options (WithLeaseTTL, WithBrokerShards, WithTenantQuota). One shard
// (the default) is the paper's single broker; more shards spread the
// lease space over independent replicas.
func StartBroker(p *Proc, store *MetaStore, opts ...Option) *BrokerCluster {
	s := apply(opts)
	cfg := broker.DefaultConfig()
	if s.leaseTTL > 0 {
		cfg.LeaseTTL = s.leaseTTL
	}
	cfg.Quotas = s.quotas
	n := s.brokerShards
	if n <= 0 {
		n = 1
	}
	return broker.NewCluster(p, store, n, cfg)
}

// MountRemoteFS creates the remote file system client on the database
// server owning client, configured by options (WithProtocol,
// WithPlacement, WithAutoRenew, WithRecovery, WithRetryPolicy,
// WithSalvage, WithReplication, WithIntegrity, WithScrubEvery,
// WithTenant, WithHeartbeatEvery, WithDeadlineBudget, WithHedging,
// WithHedgeAfter, WithHedgeRateCap, WithHealthChecks). b is the broker
// StartBroker returned, of one shard or many.
func MountRemoteFS(p *Proc, b *BrokerCluster, client *RemoteClient, opts ...Option) *RemoteFS {
	s := apply(opts)
	cfg := core.DefaultConfig()
	if s.replication > 0 {
		cfg.Replication = s.replication
	}
	if s.integrity != nil {
		cfg.Integrity = *s.integrity
	}
	if s.scrubEvery > 0 {
		cfg.ScrubEvery = s.scrubEvery
	}
	if s.protocol != nil {
		cfg.Protocol = *s.protocol
	}
	if s.placement != nil {
		cfg.Placement = *s.placement
	}
	if s.autoRenew != nil {
		cfg.AutoRenew = *s.autoRenew
	}
	if s.recover != nil {
		cfg.Recover = *s.recover
	}
	if s.retry != nil {
		cfg.Retry = *s.retry
	}
	if s.salvage != nil {
		cfg.Salvage = s.salvage
	}
	if s.tenant != "" {
		cfg.Tenant = s.tenant
	}
	if s.hbEvery > 0 {
		cfg.HeartbeatEvery = s.hbEvery
	}
	if s.budget > 0 {
		cfg.DeadlineBudget = s.budget
	}
	if s.hedging != nil {
		cfg.Hedging = *s.hedging
	}
	if s.hedgeAfter > 0 {
		cfg.HedgeAfter = s.hedgeAfter
	}
	if s.hedgeCap > 0 {
		cfg.HedgeRateCap = s.hedgeCap
	}
	if s.healthChecks != nil {
		cfg.HealthChecks = *s.healthChecks
	}
	return core.NewFS(p, b, client, cfg)
}

// StartEngine assembles the mini-RDBMS on server over the given storage
// placement, configured by options (WithBufferFrames, WithBPExtSlots,
// WithGrant, WithSemCache, WithPlanCache, WithDOP, WithEviction,
// WithBatchedIO, WithReadahead, WithPushdown, WithDonorCPU,
// WithDeadlineBudget).
func StartEngine(p *Proc, server *Server, files EngineFiles, opts ...Option) (*Engine, error) {
	s := apply(opts)
	frames := s.bufferFrames
	if frames <= 0 {
		frames = 4096 // 32 MiB of 8 KiB frames, the paper's default
	}
	cfg := engine.DefaultConfig(frames)
	if s.bpextSlots > 0 {
		cfg.BPExtSlots = s.bpextSlots
	}
	if s.grant > 0 {
		cfg.Grant = s.grant
	}
	cfg.SemCache = s.semCache.SemCache
	if s.planCache != nil {
		cfg.PlanCacheEntries = *s.planCache
		if *s.planCache < 0 {
			cfg.PlanCacheEntries = -1
		}
	}
	if s.dop > 0 {
		cfg.DOP = s.dop
	}
	if s.eviction != nil {
		cfg.Eviction = *s.eviction
	}
	if s.batchedIO != nil {
		cfg.NoBatchedIO = !*s.batchedIO
	}
	if s.readahead > 0 {
		cfg.Readahead = s.readahead
	}
	if s.pushdown != nil {
		cfg.Pushdown = *s.pushdown
	}
	if s.donorPrice > 0 {
		cfg.DonorPrice = s.donorPrice
	}
	if s.budget > 0 {
		cfg.Budget = s.budget
	}
	return engine.New(p, server, files, cfg)
}

// NewTestBed assembles a full test bed for one of the Table 5 designs,
// configured by options (WithStripeSize, WithLeaseTTL, WithExpirySweep,
// WithRetryPolicy, WithRecovery, WithRemoteServers, WithBufferFrames,
// WithBPExtBytes, WithReplication, WithIntegrity, WithScrubEvery,
// WithEviction, WithBatchedIO, WithReadahead, WithPushdown,
// WithDonorCPU, WithBrokerShards, WithHeartbeatEvery, WithTenantQuota,
// WithDeadlineBudget, WithHedging, WithHedgeAfter, WithHedgeRateCap,
// WithHealthChecks).
func NewTestBed(p *Proc, d Design, opts ...Option) (*Bed, error) {
	s := apply(opts)
	cfg := exp.DefaultBedConfig(d)
	if s.replication > 0 {
		cfg.Replication = s.replication
	}
	if s.integrity != nil {
		cfg.Integrity = *s.integrity
	}
	if s.scrubEvery > 0 {
		cfg.ScrubEvery = s.scrubEvery
	}
	if s.bpextBytes > 0 {
		cfg.BPExtBytes = s.bpextBytes
	}
	if s.stripeSize > 0 {
		cfg.MRBytes = s.stripeSize
	}
	if s.leaseTTL > 0 {
		cfg.LeaseTTL = s.leaseTTL
	}
	if s.expireEvery > 0 {
		cfg.ExpireEvery = s.expireEvery
	}
	if s.retry != nil {
		cfg.Retry = *s.retry
	}
	if s.recover != nil {
		cfg.NoRecover = !*s.recover
	}
	if s.remoteSrvs > 0 {
		cfg.RemoteServers = s.remoteSrvs
	}
	if s.bufferFrames > 0 {
		cfg.LocalMemBytes = int64(s.bufferFrames) * 8192
	}
	if s.eviction != nil {
		cfg.Eviction = *s.eviction
	}
	if s.batchedIO != nil {
		cfg.NoBatchedIO = !*s.batchedIO
	}
	if s.readahead > 0 {
		cfg.Readahead = s.readahead
	}
	if s.pushdown != nil {
		cfg.Pushdown = *s.pushdown
	}
	if s.donorPrice > 0 {
		cfg.DonorPrice = s.donorPrice
	}
	if s.brokerShards > 0 {
		cfg.BrokerShards = s.brokerShards
	}
	if s.hbEvery > 0 {
		cfg.HeartbeatEvery = s.hbEvery
	}
	if s.quotas != nil {
		cfg.TenantQuotas = s.quotas
	}
	if s.budget > 0 {
		cfg.DeadlineBudget = s.budget
	}
	if s.hedging != nil {
		cfg.Hedging = *s.hedging
	}
	if s.hedgeAfter > 0 {
		cfg.HedgeAfter = s.hedgeAfter
	}
	if s.hedgeCap > 0 {
		cfg.HedgeRateCap = s.hedgeCap
	}
	if s.healthChecks != nil {
		cfg.HealthChecks = *s.healthChecks
	}
	return exp.NewBed(p, cfg)
}

// Every concrete file the facade hands out satisfies the one interface
// the engine consumes.
var (
	_ File = (*core.File)(nil)
	_ File = (*vfs.MemFile)(nil)
	_ File = (*vfs.DeviceFile)(nil)
)
