// Per-frame delivery hardening: a deadline on every Ship attempt and
// bounded retries with exponential backoff and jitter around it.
// Shipping is at-least-once by construction — a timed-out attempt may
// still have been delivered, and the retry then lands a duplicate the
// replica's idempotent apply absorbs.
package repl

import (
	"errors"
	"fmt"
	"time"

	"spash"
	"spash/internal/obs"
)

// The backoff before a frame's second attempt is baseDelay; each
// further attempt doubles it, up to maxDelay. The actual sleep is
// jittered in [delay/2, 3*delay/2) so a fleet of retriers does not
// synchronise.
const (
	baseDelay = 200 * time.Microsecond
	maxDelay  = 20 * time.Millisecond
)

// RetryPolicy bounds one frame's delivery attempts.
type RetryPolicy struct {
	// MaxAttempts caps the Ship calls per frame (first try included).
	// Default 4.
	MaxAttempts int
	// Deadline bounds one Ship attempt's wall-clock time; an attempt
	// past it fails with spash.ErrTransportTimeout (the attempt's
	// goroutine is abandoned — a late ack becomes a duplicate).
	// Default 1s; negative disables the deadline.
	Deadline time.Duration
	// JitterSeed seeds the backoff jitter (deterministic tests).
	// Default 1.
	JitterSeed int64
	// Sleep is the backoff sleep, injectable for tests. Default
	// time.Sleep.
	Sleep func(time.Duration)
}

func (rp RetryPolicy) withDefaults() RetryPolicy {
	if rp.MaxAttempts <= 0 {
		rp.MaxAttempts = 4
	}
	if rp.Deadline == 0 {
		rp.Deadline = time.Second
	}
	if rp.JitterSeed == 0 {
		rp.JitterSeed = 1
	}
	if rp.Sleep == nil {
		rp.Sleep = time.Sleep
	}
	return rp
}

// shipOnceLocked runs one Ship attempt under the per-frame deadline.
// The attempt runs in its own goroutine so a hung transport cannot
// wedge the primary: past the deadline the attempt is abandoned (its
// eventual result is discarded; an eventual delivery surfaces as a
// duplicate on the replica) and the attempt fails with a typed
// ErrTransportTimeout. Caller holds p.mu.
func (p *Primary) shipOnceLocked(f *Frame) error {
	d := p.opts.Retry.Deadline
	if d <= 0 {
		return p.t.Ship(f)
	}
	done := make(chan error, 1)
	go func() { done <- p.t.Ship(f) }()
	timer := time.NewTimer(d)
	defer timer.Stop()
	select {
	case err := <-done:
		return err
	case <-timer.C:
		return &spash.ReplicationError{Op: "ship", Shard: f.Shard,
			Epoch: f.Epoch,
			Err: fmt.Errorf("frame %d missed %v deadline: %w",
				f.Seq, d, spash.ErrTransportTimeout)}
	}
}

// isAny reports whether err matches any of the sentinels.
func isAny(err error, targets ...error) bool {
	for _, t := range targets {
		if errors.Is(err, t) {
			return true
		}
	}
	return false
}

// retryableShip reports whether a Ship error is worth retrying.
// Typed protocol refusals are not transport noise: fencing
// (ErrNotPrimary) is permanent, cursor refusals (ErrReplicaLag,
// ErrNeedsReseed) need a resync, not a resend of the same frame, and a
// full replica (ErrNoSpace) gains no room by waiting — the breaker
// opens on the first refusal and the prober takes over.
func retryableShip(err error) bool {
	return !isAny(err, spash.ErrNotPrimary, spash.ErrReplicaLag, spash.ErrNeedsReseed, spash.ErrNoSpace)
}

// shipRetryLocked delivers one frame through the retry policy:
// bounded attempts with exponential backoff and jitter between them.
// Non-retryable errors surface immediately; exhaustion returns a
// typed ErrRetryExhausted that also wraps the last attempt's error.
// Caller holds p.mu and moves the cursors on success — the backoff
// sleeps with the lock held by design (the primary is
// single-worker for writes, and an in-flight frame must finish or
// fail before the next one ships to preserve stream order).
func (p *Primary) shipRetryLocked(f *Frame) error {
	rp := p.opts.Retry
	var last error
	delay := baseDelay
	for attempt := 1; ; attempt++ {
		err := p.shipOnceLocked(f)
		if err == nil {
			return nil
		}
		last = err
		if !retryableShip(err) {
			return err
		}
		if attempt >= rp.MaxAttempts {
			return fmt.Errorf("after %d attempt(s): %w; last: %w",
				attempt, spash.ErrRetryExhausted, last)
		}
		p.db.Indexes()[boundShard(p.db, f.Shard)].Obs().Inc(obs.CReplRetries)
		rp.Sleep(p.jitter(delay))
		delay = min(2*delay, maxDelay)
	}
}

// jitter spreads d into [d/2, 3d/2) with the primary's seeded rng.
// Caller holds p.mu (the rng is not goroutine-safe).
func (p *Primary) jitter(d time.Duration) time.Duration {
	if d <= 0 {
		return 0
	}
	return d/2 + time.Duration(p.rng.Int63n(int64(d)))
}
