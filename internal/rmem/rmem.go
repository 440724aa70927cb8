// Package rmem implements the remote-memory substrate of the paper
// (Section 4): pinned, NIC-registered memory regions (MRs) on servers
// with spare memory, per-scheduler preregistered staging buffers on the
// database server, and the three transfer protocols of Table 5 — NDSPI
// RDMA verbs ("Custom"), SMB Direct, and SMB over TCP.
//
// MRs hold real bytes in anonymous private mappings outside the Go heap:
// the OS backs a page only when it is first written, as a donor's pinned
// memory is resident only where a tenant wrote it, and the collector
// neither counts nor scans them. Transports copy those bytes while
// charging calibrated virtual time to the simulation, including the
// remote server's CPU for the TCP path — the quantity behind Figure 13.
// No slice of region memory outlives the rmem call that took it
// (DESIGN §2): unpinning a region unmaps it at once, and a pool dropped
// whole gives its mappings back to the OS at the next GC.
package rmem

import (
	"errors"
	"fmt"
	"runtime"
	"sync/atomic"
	"syscall"
	"time"

	"remotedb/internal/cluster"
	"remotedb/internal/fault"
	"remotedb/internal/hw/nic"
	"remotedb/internal/metrics"
	"remotedb/internal/sim"
)

// MRID names a memory region uniquely within the cluster.
type MRID struct {
	Server string
	Index  int
}

func (id MRID) String() string { return fmt.Sprintf("%s/mr%d", id.Server, id.Index) }

// region owns one MR's mapping. Unpinning the MR unmaps it; the
// mapping of an MR collected still pinned (its bed was dropped whole) is
// unmapped by the region's finalizer. The region holds no pointer into
// the Go heap, so it can never sit in a reference cycle. (A finalizer on
// *MR would never run: MR → Owner → the server's pressure subscriptions
// → Pool → MR is a cycle.)
type region struct{ b []byte }

// mappedBytes counts the bytes of live region mappings: mapRegion adds,
// unmap subtracts.
var mappedBytes atomic.Int64

// mapRegion maps n bytes of zeroed, not-yet-backed memory.
func mapRegion(n int) (*region, error) {
	b, err := syscall.Mmap(-1, 0, n, syscall.PROT_READ|syscall.PROT_WRITE, syscall.MAP_ANON|syscall.MAP_PRIVATE)
	if err != nil {
		return nil, fmt.Errorf("rmem: mapping a %d-byte region: %w", n, err)
	}
	mappedBytes.Add(int64(n))
	r := &region{b: b}
	runtime.SetFinalizer(r, (*region).unmap)
	return r, nil
}

// unmap gives the region's pages back to the OS; nothing may still hold
// a slice of them.
func (r *region) unmap() {
	runtime.SetFinalizer(r, nil)
	if err := syscall.Munmap(r.b); err != nil {
		panic("rmem: unmapping a region: " + err.Error())
	}
	mappedBytes.Add(-int64(len(r.b)))
	r.b = nil
}

// MR is one pinned memory region on a memory server.
type MR struct {
	ID    MRID
	Owner *cluster.Server
	buf   []byte  // mem's bytes; nil once the region is unpinned
	mem   *region // owns buf's mapping; nil once unpinned

	registered bool
	leased     bool
	revoked    bool // owner failed or reclaimed the region
}

// Size returns the region size in bytes.
func (mr *MR) Size() int { return len(mr.buf) }

// Leased reports whether the region is currently leased out.
func (mr *MR) Leased() bool { return mr.leased }

// Revoked reports whether the region's memory has been reclaimed (owner
// failure or pressure); accesses to a revoked MR fail.
func (mr *MR) Revoked() bool { return mr.revoked }

// ErrRevoked is returned when accessing an MR whose memory is gone. It
// wraps fault.ErrRevoked: the region never comes back, the holder must
// lease a replacement.
var ErrRevoked = fmt.Errorf("rmem: memory region revoked (%w)", fault.ErrRevoked)

// ErrSlow is returned when a transfer is abandoned because it blew its
// deadline budget. It wraps fault.ErrSlow (itself retryable): the donor
// may be fine in a moment, or a replica can serve the read now.
var ErrSlow = fmt.Errorf("rmem: transfer deadline exceeded (%w)", fault.ErrSlow)

// Fault-injection primitives. These mutate the stored bytes directly,
// bypassing the transport (no virtual time, no staging, no encryption),
// modelling silent medium faults — a DRAM bit flip on the donor, a torn
// RDMA write, a resurrected stale buffer. They exist only for the
// corruption-injection harness; production code never calls them.

// InjectXOR flips the bits selected by mask in the byte at off,
// reporting whether the region still holds memory there.
func (mr *MR) InjectXOR(off int, mask byte) bool {
	if mr.revoked || off < 0 || off >= len(mr.buf) {
		return false
	}
	mr.buf[off] ^= mask
	return true
}

// InjectClobber overwrites [off, off+n) with a fixed garbage pattern —
// the tail of a torn write that never completed.
func (mr *MR) InjectClobber(off, n int) bool {
	if mr.revoked || off < 0 || n < 0 || off+n > len(mr.buf) {
		return false
	}
	for i := off; i < off+n; i++ {
		mr.buf[i] = byte(0xA5 ^ i)
	}
	return true
}

// InjectCopyOut snapshots [off, off+n) of the stored (possibly
// encrypted) image, for a later InjectCopyIn — the capture half of
// stale-replica resurrection. It returns nil if the range is gone.
func (mr *MR) InjectCopyOut(off, n int) []byte {
	if mr.revoked || off < 0 || n < 0 || off+n > len(mr.buf) {
		return nil
	}
	return append([]byte(nil), mr.buf[off:off+n]...)
}

// InjectCopyIn writes a snapshot taken by InjectCopyOut back over the
// stored image — the resurrection half: the region silently reverts to
// an older, internally consistent state.
func (mr *MR) InjectCopyIn(off int, b []byte) bool {
	if mr.revoked || off < 0 || off+len(b) > len(mr.buf) {
		return false
	}
	copy(mr.buf[off:], b)
	return true
}

// Pool is the memory-server side of the brokering proxy: it pins free
// memory into fixed-size MRs, preregisters them with the NIC, and hands
// them out. Each MR is its own mapping, backed only where it has been
// written; deregistration under memory pressure unpins regions, which
// gives their pages back to the OS.
type Pool struct {
	server *cluster.Server
	mrSize int
	mrs    []*MR
	free   []*MR
	nextID int
}

// NewPool pins count MRs of mrSize bytes each on server, charging the
// NIC registration cost for each region to proc p (preregistration
// happens once, at startup — the design choice of Section 4.1.4).
func NewPool(p *sim.Proc, server *cluster.Server, mrSize, count int) (*Pool, error) {
	if mrSize <= 0 || count < 0 {
		return nil, errors.New("rmem: invalid pool geometry")
	}
	pool := &Pool{server: server, mrSize: mrSize}
	if err := pool.Grow(p, count); err != nil {
		return nil, err
	}
	return pool, nil
}

// Grow pins and registers count additional MRs.
func (pool *Pool) Grow(p *sim.Proc, count int) error {
	for i := 0; i < count; i++ {
		if err := pool.server.PinBrokered(int64(pool.mrSize)); err != nil {
			return err
		}
		mem, err := mapRegion(pool.mrSize)
		if err != nil {
			pool.server.UnpinBrokered(int64(pool.mrSize))
			return err
		}
		mr := &MR{
			ID:         MRID{Server: pool.server.Name, Index: pool.nextID},
			Owner:      pool.server,
			buf:        mem.b,
			mem:        mem,
			registered: true,
		}
		pool.nextID++
		// Registration pins pages and programs the NIC page table; it
		// costs CPU on the owning server.
		pool.server.Work(p, nic.RegisterCost(pool.mrSize))
		pool.mrs = append(pool.mrs, mr)
		pool.free = append(pool.free, mr)
	}
	return nil
}

// MRSize returns the fixed region size.
func (pool *Pool) MRSize() int { return pool.mrSize }

// FreeCount returns the number of unleased regions.
func (pool *Pool) FreeCount() int { return len(pool.free) }

// TotalCount returns the number of pinned regions.
func (pool *Pool) TotalCount() int { return len(pool.mrs) }

// Acquire leases out one free MR.
func (pool *Pool) Acquire() (*MR, error) {
	if len(pool.free) == 0 {
		return nil, errors.New("rmem: pool exhausted on " + pool.server.Name)
	}
	mr := pool.free[0]
	pool.free = pool.free[1:]
	mr.leased = true
	return mr, nil
}

// ReleaseMR returns a leased MR to the free list (its contents are not
// cleared; leases are exclusive so the next tenant overwrites).
func (pool *Pool) ReleaseMR(mr *MR) {
	if mr.revoked {
		return
	}
	mr.leased = false
	pool.free = append(pool.free, mr)
}

// Shrink unpins up to n bytes of free MRs (memory-pressure response),
// newest-freed first, and returns the number of bytes actually released.
// The regions' pages go back to the OS.
func (pool *Pool) Shrink(n int64) int64 {
	var released int64
	for released < n && len(pool.free) > 0 {
		mr := pool.free[len(pool.free)-1]
		pool.free = pool.free[:len(pool.free)-1]
		pool.removeMR(mr)
		released += int64(pool.mrSize)
	}
	return released
}

// RevokeAll simulates failure of the memory server: every MR (leased or
// not) becomes unavailable and the memory is unpinned; the pages go back
// to the OS.
func (pool *Pool) RevokeAll() {
	for _, mr := range pool.mrs {
		if !mr.revoked {
			mr.unpin()
			pool.server.UnpinBrokered(int64(pool.mrSize))
		}
	}
	pool.mrs = nil
	pool.free = nil
}

// unpin revokes mr and unmaps its memory.
func (mr *MR) unpin() {
	mr.revoked = true
	mr.mem.unmap()
	mr.buf, mr.mem = nil, nil
}

func (pool *Pool) removeMR(target *MR) {
	target.unpin()
	pool.server.UnpinBrokered(int64(pool.mrSize))
	for i, mr := range pool.mrs {
		if mr == target {
			pool.mrs = append(pool.mrs[:i], pool.mrs[i+1:]...)
			break
		}
	}
}

// AccessMode selects how the client treats remote-memory completions
// (Section 4.1.3).
type AccessMode int

const (
	// AccessSync spins on the completion queue holding the core — the
	// paper's choice for Custom.
	AccessSync AccessMode = iota
	// AccessAsync yields the thread and pays a context switch when the
	// completion is processed — how unmodified SQL Server treats I/O.
	AccessAsync
	// AccessAdaptive spins up to SyncSpinThreshold and falls back to the
	// asynchronous path for longer transfers — the adaptive strategy the
	// paper leaves as future work (Section 4.1.3), implemented here.
	AccessAdaptive
)

// RegistrationMode selects client-side MR registration strategy
// (Section 4.1.4).
type RegistrationMode int

const (
	// RegStaging copies pages through preregistered per-scheduler staging
	// buffers (memcpy ≈ 2 µs per 8 K page) — the paper's choice.
	RegStaging RegistrationMode = iota
	// RegOnDemand registers the source/destination buffer for every
	// transfer (≈ 50 µs per 8 K page) — the rejected alternative, kept
	// for the ablation benchmark.
	RegOnDemand
)

// Client is the database-server side of the remote-memory plumbing: it
// owns the per-scheduler staging buffers and issues transfers.
type Client struct {
	Server *cluster.Server
	Mode   AccessMode
	Reg    RegistrationMode

	staging *sim.Resource // pending-transfer slots across all schedulers
	crypt   *cryptor      // nil unless encryption is enabled

	slotsPerSch  int // sub-batch element bound for vectored transfers
	stagingBytes int // sub-batch byte bound (one scheduler's staging MR)

	spare []*spareRead // free list of ReadVWithin's private state

	Reads, Writes       int64
	BytesRead, BytesWrt int64

	// RoundTrips counts charged wire messages. A doorbell-batched vector
	// pays one per destination server per sub-batch instead of one per
	// element — this counter is what the iobatch experiment compares.
	RoundTrips int64

	// StagingContention records how often transfers blocked waiting for a
	// staging slot, the total time spent blocked, and the slot high-water
	// mark, attributing batching wins to round trips vs queueing.
	StagingContention metrics.Contention

	// DeadlineMisses counts transfers abandoned because they blew their
	// deadline budget (returned ErrSlow). The wire/staging cost of an
	// abandoned transfer is still paid — cancelling an in-flight RDMA
	// refunds nothing — only the caller stops waiting.
	DeadlineMisses int64

	// Pushdown counters: ScanPush calls, bytes evaluated at donors, the
	// qualifying bytes that actually crossed the wire, and the donor CPU
	// charged — the "bytes on the wire" win the pushdown bench measures.
	Pushes            int64
	PushBytesScanned  int64
	PushBytesReturned int64
	PushDonorCPU      time.Duration
}

// ClientConfig parameterizes a client.
type ClientConfig struct {
	Mode         AccessMode
	Reg          RegistrationMode
	Schedulers   int // CPU schedulers issuing I/O (paper: one staging MR each)
	SlotsPerSch  int // pending RDMA transfers per scheduler (paper: 128)
	StagingBytes int // staging MR size per scheduler (paper: 1 MiB)

	// Encrypt enables AES-CTR encryption of every payload with Key, so
	// donor servers only ever hold ciphertext — the security measure the
	// paper's Section 7 calls for. Costs EncryptBytesPerSec of client CPU.
	// Encryption makes ScanPush unavailable: donors cannot evaluate
	// ciphertext, so pushed scans fall back to fetching whole blocks.
	Encrypt bool
	Key     [16]byte
}

// DefaultClientConfig mirrors Section 4.2.
func DefaultClientConfig() ClientConfig {
	return ClientConfig{
		Mode:        AccessSync,
		Reg:         RegStaging,
		Schedulers:  8,
		SlotsPerSch: 128,
	}
}

// NewClient creates a client on the database server, charging the one-time
// registration of its staging buffers.
func NewClient(p *sim.Proc, server *cluster.Server, cfg ClientConfig) *Client {
	if cfg.Schedulers <= 0 {
		cfg.Schedulers = 8
	}
	if cfg.SlotsPerSch <= 0 {
		cfg.SlotsPerSch = 128
	}
	if cfg.StagingBytes <= 0 {
		cfg.StagingBytes = 1 << 20
	}
	c := &Client{
		Server:       server,
		Mode:         cfg.Mode,
		Reg:          cfg.Reg,
		staging:      sim.NewResource(server.K, server.Name+"/staging", cfg.Schedulers*cfg.SlotsPerSch),
		slotsPerSch:  cfg.SlotsPerSch,
		stagingBytes: cfg.StagingBytes,
	}
	if cfg.Encrypt {
		c.crypt = newCryptor(cfg.Key)
	}
	for i := 0; i < cfg.Schedulers; i++ {
		server.Work(p, nic.RegisterCost(cfg.StagingBytes))
	}
	return c
}

// acquireStaging takes n pending-transfer slots, recording contention:
// a blocked acquisition counts one wait plus the time spent queued, and
// the in-use high-water mark is sampled after every acquisition.
func (c *Client) acquireStaging(p *sim.Proc, n int) {
	if !c.staging.TryAcquire(n) {
		start := p.Now()
		c.staging.Acquire(p, n)
		c.StagingContention.RecordWait(p.Now() - start)
	}
	c.StagingContention.Observe(c.staging.InUse())
}

// Transport moves bytes between a client server and an MR, charging
// protocol-specific costs.
type Transport interface {
	// Read copies len(dst) bytes from mr at off into dst.
	Read(p *sim.Proc, c *Client, mr *MR, off int, dst []byte) error
	// Write copies src into mr at off.
	Write(p *sim.Proc, c *Client, mr *MR, off int, src []byte) error
	// Protocol identifies the underlying protocol.
	Protocol() nic.Protocol
}

// NewTransport returns the transport for a protocol.
func NewTransport(proto nic.Protocol) Transport {
	switch proto {
	case nic.ProtoRDMA:
		return &rdmaTransport{}
	case nic.ProtoSMBDirect, nic.ProtoSMB:
		return &smbTransport{proto: proto, profile: nic.ProfileFor(proto)}
	}
	panic("rmem: unknown protocol")
}

func checkRange(mr *MR, off, n int) error {
	if mr.revoked {
		return ErrRevoked
	}
	if off < 0 || n < 0 || off+n > len(mr.buf) {
		return fmt.Errorf("rmem: access [%d,%d) outside MR of %d bytes", off, off+n, len(mr.buf))
	}
	return nil
}

// rdmaTransport is the paper's Custom design: one-sided RDMA verbs, no
// remote CPU, staging memcpy, synchronous spin by default.
type rdmaTransport struct{}

func (t *rdmaTransport) Protocol() nic.Protocol { return nic.ProtoRDMA }

// dest is one destination server's share of a plan: everything bound
// for it travels as one wire message.
type dest struct {
	owner *cluster.Server
	bytes int
}

// plan is one doorbell's worth of RDMA work: n staged elements, their
// summed staging cost, and the per-destination wire messages in
// first-appearance order (so the charged sequence is deterministic).
type plan struct {
	n     int
	total int
	prep  time.Duration
	dests []dest
}

// prepCost is what making n caller bytes NIC-visible costs: a copy
// through the preregistered staging buffer, or registering the caller's
// buffer for this one transfer.
func (c *Client) prepCost(n int) time.Duration {
	if c.Reg == RegOnDemand {
		return nic.RegisterCost(n)
	}
	return nic.MemcpyCost(n)
}

// issue is the one place an RDMA read or write is priced. It takes the
// plan's staging slots (the caller releases them once the bytes have
// landed), rings one doorbell, waits out each destination's service
// delay — a donor under memory pressure (reclaiming, NIC-saturated)
// services one-sided transfers late: the pages being reclaimed stall the
// DMA even though no remote CPU is involved — stages every element, and
// sends one wire message per destination.
func (c *Client) issue(p *sim.Proc, pl *plan, write bool) {
	c.acquireStaging(p, pl.n)
	c.complete(p, pl.total, func() {
		p.Sleep(nic.ProfileFor(nic.ProtoRDMA).ClientPost)
		for _, d := range pl.dests {
			if delay := d.owner.ServiceDelay(); delay > 0 {
				p.Sleep(delay)
			}
		}
		p.Sleep(pl.prep)
		for _, d := range pl.dests {
			if write {
				nic.Wire(p, c.Server.NIC, d.owner.NIC, d.bytes)
			} else {
				nic.Wire(p, d.owner.NIC, c.Server.NIC, d.bytes)
			}
			c.RoundTrips++
		}
	})
}

// complete runs one posted transfer under the client's completion mode
// (Section 4.1.3): spin on the completion queue holding the core, or
// yield and pay a context switch when the completion is processed.
func (c *Client) complete(p *sim.Proc, bytes int, do func()) {
	spin := c.Mode == AccessSync
	if c.Mode == AccessAdaptive {
		// Predict the transfer time from size; spin for short transfers,
		// yield for long ones. The prediction uses the wire rate only — a
		// real implementation would sample completion times, but the
		// decision boundary is the same.
		cfg := c.Server.NIC.Config()
		est := time.Duration(float64(bytes)/cfg.PayloadBytesPerSec*1e9) + cfg.BaseLatency
		spin = est <= SyncSpinThreshold
	}
	if spin {
		c.Server.Exec(p, do)
		return
	}
	do()
	c.Server.Reschedule(p)
}

// xfer is the scalar verb: a plan of one, built in this frame. Race
// children run it on a fresh 2 KiB goroutine stack, so the chain
// Read -> xfer -> issue -> closure stays shallow (see DESIGN §14).
func (t *rdmaTransport) xfer(p *sim.Proc, c *Client, mr *MR, off int, buf []byte, write bool) error {
	if err := checkRange(mr, off, len(buf)); err != nil {
		return err
	}
	if err := checkBudget(p, c); err != nil {
		return err
	}
	one := [1]dest{{owner: mr.Owner, bytes: len(buf)}}
	pl := plan{n: 1, total: len(buf), prep: c.prepCost(len(buf)), dests: one[:]}
	c.issue(p, &pl, write)
	err := ErrRevoked // revoked while we were in flight
	if !mr.revoked {
		err = c.moveBytes(p, mr, off, buf, nil, write)
	}
	c.staging.Release(1)
	return err
}

// moveBytes performs the actual byte movement between one element —
// buf, then tail, contiguous at off in the MR — and the MR, transparently
// encrypting so the donor only holds ciphertext when the client has
// encryption enabled. The element is counted, and its encryption
// priced, as one transfer of the total length. Encrypting a write yields
// before the bytes land, so a region revoked meanwhile fails it with
// ErrRevoked; a read copies first and decrypts the caller's copy.
func (c *Client) moveBytes(p *sim.Proc, mr *MR, off int, buf, tail []byte, write bool) error {
	n := len(buf) + len(tail)
	if write {
		if c.crypt != nil {
			c.Server.Work(p, encryptCost(n))
			if mr.revoked {
				return ErrRevoked
			}
		}
		dst := mr.buf[off : off+n]
		copy(dst[copy(dst, buf):], tail)
		if c.crypt != nil {
			c.crypt.xcrypt(mr.ID, off, dst) // in place: nothing runs in between
		}
		c.Writes++
		c.BytesWrt += int64(n)
		return nil
	}
	src := mr.buf[off : off+n]
	copy(tail, src[copy(buf, src):])
	if c.crypt != nil {
		c.Server.Work(p, encryptCost(n))
		c.crypt.xcrypt(mr.ID, off, buf)
		if len(tail) > 0 {
			c.crypt.xcrypt(mr.ID, off+len(buf), tail)
		}
	}
	c.Reads++
	c.BytesRead += int64(n)
	return nil
}

func (t *rdmaTransport) Read(p *sim.Proc, c *Client, mr *MR, off int, dst []byte) error {
	return t.xfer(p, c, mr, off, dst, false)
}

func (t *rdmaTransport) Write(p *sim.Proc, c *Client, mr *MR, off int, src []byte) error {
	return t.xfer(p, c, mr, off, src, true)
}

// smbTransport models the two RamDrive designs: the remote file server
// processes each request (occupying a worker slot and remote CPU), the
// payload crosses the fabric (RDMA for SMB Direct, TCP for SMB), and the
// client completes the I/O asynchronously.
type smbTransport struct {
	proto   nic.Protocol
	profile nic.Profile
}

func (t *smbTransport) Protocol() nic.Protocol { return t.proto }

// xfer moves one element, buf then tail (see IOVec); the scalar verbs
// pass no tail.
func (t *smbTransport) xfer(p *sim.Proc, c *Client, mr *MR, off int, buf, tail []byte, write bool) error {
	n := len(buf) + len(tail)
	if err := checkRange(mr, off, n); err != nil {
		return err
	}
	if err := checkBudget(p, c); err != nil {
		return err
	}
	prof := t.profile
	// Client-side issue cost (system call, SMB client stack).
	c.Server.Work(p, prof.ClientPost)
	// Remote file-server stage: a worker slot plus remote CPU time; the
	// non-CPU remainder is RamDrive/DMA service.
	fs := mr.Owner.FileServer()
	fs.Acquire(p, 1)
	mr.Owner.Work(p, prof.ServerCPUCharge)
	if rest := prof.ServerService - prof.ServerCPUCharge; rest > 0 {
		p.Sleep(rest)
	}
	if d := mr.Owner.ServiceDelay(); d > 0 {
		p.Sleep(d) // slow donor: the file-server stage is starved for CPU
	}
	fs.Release(1)
	// Payload on the wire.
	src, dst := mr.Owner.NIC, c.Server.NIC
	if write {
		src, dst = c.Server.NIC, mr.Owner.NIC
	}
	if prof.TCPPath {
		nic.WireTCP(p, src, dst, n)
	} else {
		nic.Wire(p, src, dst, n)
	}
	c.RoundTrips++
	// Asynchronous completion on the client.
	if prof.AsyncCompletion {
		c.Server.Reschedule(p)
	}
	if mr.revoked {
		return ErrRevoked
	}
	return c.moveBytes(p, mr, off, buf, tail, write)
}

func (t *smbTransport) Read(p *sim.Proc, c *Client, mr *MR, off int, dst []byte) error {
	return t.xfer(p, c, mr, off, dst, nil, false)
}

func (t *smbTransport) Write(p *sim.Proc, c *Client, mr *MR, off int, src []byte) error {
	return t.xfer(p, c, mr, off, src, nil, true)
}

// SyncSpinThreshold is the point past which a production implementation
// would fall back to async completion (future work in the paper); the
// sync transport exposes it for the adaptive-mode extension.
const SyncSpinThreshold = 50 * time.Microsecond

// checkBudget enforces the process's deadline budget at op issue: an
// exhausted budget abandons the op before it consumes a staging slot or
// wire time. Ops never started cost nothing, unlike ops abandoned
// mid-flight (ReadVWithin), whose wire cost is sunk.
func checkBudget(p *sim.Proc, c *Client) error {
	if dl := p.Deadline(); dl > 0 && p.Now() >= dl {
		c.DeadlineMisses++
		return fmt.Errorf("rmem: budget exhausted before issue: %w", ErrSlow)
	}
	return nil
}
