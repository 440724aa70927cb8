package fault

import (
	"errors"
	"fmt"
	"testing"
	"time"

	"remotedb/internal/sim"
)

// newKernel returns a kernel that is closed when the test ends, so the
// procs it parked end with it.
func newKernel(tb testing.TB, seed int64) *sim.Kernel {
	k := sim.New(seed)
	tb.Cleanup(k.Close)
	return k
}

func TestBackoffSchedule(t *testing.T) {
	rp := RetryPolicy{MaxAttempts: 6, BaseDelay: time.Millisecond, MaxDelay: 8 * time.Millisecond, Multiplier: 2}
	want := []time.Duration{
		1 * time.Millisecond,
		2 * time.Millisecond,
		4 * time.Millisecond,
		8 * time.Millisecond,
		8 * time.Millisecond, // capped
	}
	for i, w := range want {
		if got := rp.Backoff(i+1, nil); got != w {
			t.Errorf("backoff(%d) = %v, want %v", i+1, got, w)
		}
	}
}

func TestBackoffJitterBounds(t *testing.T) {
	rp := RetryPolicy{MaxAttempts: 3, BaseDelay: 10 * time.Millisecond, Multiplier: 1, Jitter: 0.5}
	k := newKernel(t, 42)
	rng := k.Rand()
	for i := 0; i < 100; i++ {
		d := rp.Backoff(1, rng)
		if d < 5*time.Millisecond || d > 15*time.Millisecond {
			t.Fatalf("jittered backoff %v outside [5ms, 15ms]", d)
		}
	}
}

func TestRetryStopsOnNonRetryable(t *testing.T) {
	permanent := errors.New("permanent")
	k := newKernel(t, 1)
	k.Go("test", func(p *sim.Proc) {
		calls := 0
		err := Retry(p, DefaultRetryPolicy(), func() error {
			calls++
			return permanent
		})
		if !errors.Is(err, permanent) {
			t.Errorf("err = %v, want permanent", err)
		}
		if calls != 1 {
			t.Errorf("non-retryable error retried %d times", calls)
		}
	})
	k.Run(0)
}

func TestRetrySucceedsAfterTransientFailures(t *testing.T) {
	k := newKernel(t, 1)
	k.Go("test", func(p *sim.Proc) {
		calls := 0
		start := p.Now()
		err := Retry(p, RetryPolicy{MaxAttempts: 5, BaseDelay: time.Millisecond, Multiplier: 2}, func() error {
			calls++
			if calls < 3 {
				return fmt.Errorf("flaky: %w", ErrRetryable)
			}
			return nil
		})
		if err != nil {
			t.Errorf("retry should have succeeded: %v", err)
		}
		if calls != 3 {
			t.Errorf("calls = %d, want 3", calls)
		}
		// Two backoffs: 1 ms + 2 ms of virtual time.
		if elapsed := p.Now() - start; elapsed != 3*time.Millisecond {
			t.Errorf("elapsed = %v, want 3ms of virtual backoff", elapsed)
		}
	})
	k.Run(0)
}

func TestRetryExhaustsAttempts(t *testing.T) {
	k := newKernel(t, 1)
	k.Go("test", func(p *sim.Proc) {
		calls := 0
		err := Retry(p, RetryPolicy{MaxAttempts: 3, BaseDelay: time.Millisecond}, func() error {
			calls++
			return fmt.Errorf("still down: %w", ErrRetryable)
		})
		if calls != 3 {
			t.Errorf("calls = %d, want 3", calls)
		}
		if !errors.Is(err, ErrRetryable) {
			t.Errorf("exhausted error should stay classified retryable: %v", err)
		}
	})
	k.Run(0)
}

func TestTaxonomyDistinct(t *testing.T) {
	all := []error{ErrRetryable, ErrRevoked, ErrUnavailable, ErrNotFound, ErrClosed}
	for i, a := range all {
		for j, b := range all {
			if (i == j) != errors.Is(a, b) {
				t.Errorf("errors.Is(%v, %v) = %v", a, b, i == j)
			}
		}
	}
}

func TestRetryWithinNoBudgetBeforeFirstAttempt(t *testing.T) {
	k := newKernel(t, 1)
	k.Go("test", func(p *sim.Proc) {
		p.Sleep(10 * time.Millisecond)
		calls := 0
		err := RetryWithin(p, DefaultRetryPolicy(), 5*time.Millisecond, func() error {
			calls++
			return nil
		})
		if calls != 0 {
			t.Errorf("fn ran %d times past a spent deadline", calls)
		}
		if !Slow(err) || !Retryable(err) {
			t.Errorf("want ErrSlow (retryable), got %v", err)
		}
	})
	k.Run(0)
}

func TestRetryWithinBackoffWouldCrossDeadline(t *testing.T) {
	k := newKernel(t, 1)
	k.Go("test", func(p *sim.Proc) {
		calls := 0
		// 10 ms base backoff against a 5 ms deadline: the first failure
		// must short-circuit instead of sleeping through the budget.
		rp := RetryPolicy{MaxAttempts: 5, BaseDelay: 10 * time.Millisecond}
		start := p.Now()
		err := RetryWithin(p, rp, p.Now()+5*time.Millisecond, func() error {
			calls++
			return fmt.Errorf("down: %w", ErrRetryable)
		})
		if calls != 1 {
			t.Errorf("calls = %d, want 1", calls)
		}
		if !Slow(err) {
			t.Errorf("want ErrSlow, got %v", err)
		}
		if waited := p.Now() - start; waited != 0 {
			t.Errorf("slept %v instead of short-circuiting", waited)
		}
	})
	k.Run(0)
}

func TestRetryWithinDeadlineGenerousEnough(t *testing.T) {
	k := newKernel(t, 1)
	k.Go("test", func(p *sim.Proc) {
		calls := 0
		rp := RetryPolicy{MaxAttempts: 5, BaseDelay: time.Millisecond}
		err := RetryWithin(p, rp, p.Now()+time.Minute, func() error {
			calls++
			if calls < 3 {
				return fmt.Errorf("down: %w", ErrRetryable)
			}
			return nil
		})
		if err != nil || calls != 3 {
			t.Errorf("err=%v calls=%d, want success on attempt 3", err, calls)
		}
	})
	k.Run(0)
}

func TestRetryWithinNonRetryablePassesThrough(t *testing.T) {
	k := newKernel(t, 1)
	k.Go("test", func(p *sim.Proc) {
		want := fmt.Errorf("gone: %w", ErrRevoked)
		err := RetryWithin(p, DefaultRetryPolicy(), p.Now()+time.Minute, func() error { return want })
		if !errors.Is(err, ErrRevoked) || Slow(err) {
			t.Errorf("non-retryable should pass through untouched: %v", err)
		}
	})
	k.Run(0)
}

func TestBackoffCap(t *testing.T) {
	rp := RetryPolicy{MaxAttempts: 10, BaseDelay: time.Millisecond, MaxDelay: 4 * time.Millisecond, Multiplier: 2}
	for attempt := 1; attempt <= 10; attempt++ {
		if d := rp.Backoff(attempt, nil); d > 4*time.Millisecond {
			t.Errorf("attempt %d: backoff %v exceeds cap", attempt, d)
		}
	}
	if d := rp.Backoff(10, nil); d != 4*time.Millisecond {
		t.Errorf("deep attempt should sit at the cap, got %v", d)
	}
}

func TestSlowClassification(t *testing.T) {
	// ErrSlow is deliberately a subclass of ErrRetryable, and stays
	// classified through arbitrary %w chains like the ones rmem and core
	// build.
	if !Retryable(ErrSlow) {
		t.Error("ErrSlow must be retryable")
	}
	wrapped := fmt.Errorf("rmem: transfer deadline exceeded (%w)", ErrSlow)
	doubly := fmt.Errorf("core: read of block 7 blew its budget: %w", wrapped)
	for _, err := range []error{ErrSlow, wrapped, doubly} {
		if !Slow(err) || !Retryable(err) {
			t.Errorf("%v lost its classification", err)
		}
	}
	for _, err := range []error{ErrRetryable, ErrRevoked, ErrUnavailable, ErrCorrupt} {
		if Slow(err) {
			t.Errorf("%v must not classify as slow", err)
		}
	}
}
