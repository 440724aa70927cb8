// Package fault defines the repository-wide failure taxonomy and retry
// machinery for the best-effort remote-memory tier (Table 1 of the
// paper: leases expire, donors reclaim memory, remote nodes crash).
//
// Every layer — metastore, broker, rmem, core, vfs — wraps its private
// sentinels over the five canonical errors here, so a consumer can
// classify any failure with errors.Is regardless of which layer produced
// it:
//
//	ErrRetryable   transient; the operation may succeed if retried
//	ErrRevoked     the lease or memory region is permanently gone
//	ErrUnavailable the backing store cannot serve this access right now
//	ErrNotFound    the named object does not exist
//	ErrClosed      the object was closed and must not be used
//	ErrCorrupt     stored bytes failed integrity verification
//
// RetryPolicy implements the exponential-backoff-with-jitter loop the
// file layer uses for lease renewal and re-leasing after revocation:
// retries burn only virtual time, so policies are tuned for the
// simulated cluster's RPC costs, not wall clocks.
package fault

import (
	"errors"
	"fmt"
	"math/rand"
	"time"

	"remotedb/internal/sim"
)

// The canonical error classes. Layer-specific sentinels wrap exactly one
// of these (plus whatever context they add), keeping errors.Is chains
// intact end to end.
var (
	// ErrRetryable marks transient failures: a partitioned metastore, a
	// momentarily exhausted memory pool. Retrying with backoff is the
	// correct response.
	ErrRetryable = errors.New("transient failure (retryable)")
	// ErrRevoked marks a lease or memory region that is permanently
	// gone: renewal is pointless, the holder must lease a replacement.
	ErrRevoked = errors.New("lease or memory region revoked")
	// ErrUnavailable marks a backing store that cannot serve an access:
	// consumers fall back (disk, base file, recomputation), never treat
	// it as corruption.
	ErrUnavailable = errors.New("backing store unavailable")
	// ErrNotFound marks a missing named object (file, node, lease).
	ErrNotFound = errors.New("not found")
	// ErrClosed marks use-after-close.
	ErrClosed = errors.New("closed")
	// ErrCorrupt marks bytes that failed end-to-end integrity
	// verification (checksum or generation mismatch): a bit flip, a torn
	// write, or a stale replica. The bytes must never be used; consumers
	// fall back exactly as for ErrUnavailable while the integrity layer
	// repairs from a replica or re-populates via salvage.
	ErrCorrupt = errors.New("data failed integrity verification (corrupt)")
	// ErrSlow marks an operation abandoned because it blew its deadline
	// budget: the donor is alive but too slow to be useful (reclaiming
	// under pressure, NIC-saturated, about to revoke). It wraps
	// ErrRetryable — a slow donor is survivable exactly like a transient
	// failure: retry elsewhere, fall back a tier, or hedge — so every
	// existing Retryable() classification and fallback ladder handles it
	// with no new cases.
	ErrSlow = fmt.Errorf("deadline budget exceeded (slow): %w", ErrRetryable)
)

// Retryable reports whether err should be retried (wraps ErrRetryable).
func Retryable(err error) bool { return errors.Is(err, ErrRetryable) }

// Slow reports whether err is a blown deadline budget (wraps ErrSlow).
func Slow(err error) bool { return errors.Is(err, ErrSlow) }

// RetryPolicy parameterizes the exponential-backoff retry loop.
type RetryPolicy struct {
	// MaxAttempts bounds the total number of tries (including the
	// first). Zero or negative means a single attempt (no retry).
	MaxAttempts int
	// BaseDelay is the sleep after the first failure.
	BaseDelay time.Duration
	// MaxDelay caps the exponential growth.
	MaxDelay time.Duration
	// Multiplier scales the delay each round (values <= 1 mean constant
	// backoff at BaseDelay).
	Multiplier float64
	// Jitter is the fraction of each delay that is randomized, in
	// [0, 1]: the actual sleep is delay * (1 - Jitter + Jitter*U[0,2)),
	// de-synchronizing renewal herds after a metastore partition heals.
	Jitter float64
}

// DefaultRetryPolicy mirrors a production storage client: five attempts,
// 1 ms base doubling to a 100 ms cap, 20% jitter. All durations are
// virtual time.
func DefaultRetryPolicy() RetryPolicy {
	return RetryPolicy{
		MaxAttempts: 5,
		BaseDelay:   time.Millisecond,
		MaxDelay:    100 * time.Millisecond,
		Multiplier:  2,
		Jitter:      0.2,
	}
}

// Backoff returns the sleep before retry number attempt (attempt 1 is
// the first retry). rng may be nil for a deterministic, jitter-free
// schedule.
func (rp RetryPolicy) Backoff(attempt int, rng *rand.Rand) time.Duration {
	if attempt < 1 {
		attempt = 1
	}
	d := float64(rp.BaseDelay)
	mult := rp.Multiplier
	if mult < 1 {
		mult = 1
	}
	for i := 1; i < attempt; i++ {
		d *= mult
		if rp.MaxDelay > 0 && d >= float64(rp.MaxDelay) {
			d = float64(rp.MaxDelay)
			break
		}
	}
	if rp.MaxDelay > 0 && d > float64(rp.MaxDelay) {
		d = float64(rp.MaxDelay)
	}
	if rp.Jitter > 0 && rng != nil {
		d *= 1 - rp.Jitter + rp.Jitter*2*rng.Float64()
	}
	return time.Duration(d)
}

// Retry runs fn until it succeeds, fails with a non-retryable error, or
// exhausts the policy. Between attempts it sleeps the backoff schedule
// in virtual time on p. The returned error is the last error observed,
// wrapped with the attempt count when retries were exhausted.
func Retry(p *sim.Proc, rp RetryPolicy, fn func() error) error {
	return RetryWithin(p, rp, 0, fn)
}

// RetryWithin is Retry bounded by an absolute virtual-time deadline
// (zero means none). The loop short-circuits — returning the last error
// wrapped over ErrSlow — when the deadline has already passed or when
// the next backoff sleep would cross it: burning the remaining budget
// on a sleep that cannot be followed by an attempt helps nobody. The
// attempt itself is never interrupted; per-op cancellation is the
// transport's job (rmem deadline-bounded reads), this guards the loop.
func RetryWithin(p *sim.Proc, rp RetryPolicy, deadline time.Duration, fn func() error) error {
	attempts := rp.MaxAttempts
	if attempts < 1 {
		attempts = 1
	}
	var err error
	for attempt := 1; ; attempt++ {
		if deadline > 0 && p.Now() >= deadline {
			if err == nil {
				return fmt.Errorf("retry: no budget left before first attempt: %w", ErrSlow)
			}
			return fmt.Errorf("retry: deadline passed after %d attempts (%w): %v", attempt-1, ErrSlow, err)
		}
		err = fn()
		if err == nil || !Retryable(err) {
			return err
		}
		if attempt >= attempts {
			return fmt.Errorf("gave up after %d attempts: %w", attempt, err)
		}
		d := rp.Backoff(attempt, p.Rand())
		if deadline > 0 && p.Now()+d >= deadline {
			return fmt.Errorf("retry: backoff would cross deadline after %d attempts (%w): %v", attempt, ErrSlow, err)
		}
		p.Sleep(d)
	}
}
