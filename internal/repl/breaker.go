// Graceful degradation: when retries exhaust, the primary trips a
// circuit breaker into degraded-async mode — client writes keep
// succeeding locally, their frames wait in the frame log above the
// peer's cursor, health reports DEGRADED (obs.EvalHealth reads the
// breaker-state and spill-depth gauges), and a background prober runs
// the catch-up loop (resync.go) once the transport answers again. The
// primary never blocks a write indefinitely on a dead transport.
package repl

import (
	"errors"
	"fmt"
	"time"

	"spash"
	"spash/internal/obs"
)

// BreakerState is the shipping circuit breaker's state. The numeric
// values are published as the repl_breaker_state gauge.
type BreakerState int64

const (
	// BreakerClosed: the transport is healthy; frames ship
	// synchronously and a nil write return means both nodes have it.
	BreakerClosed BreakerState = iota
	// BreakerHalfOpen: a catch-up pass is testing the transport; new
	// frames still wait in the log until it completes.
	BreakerHalfOpen
	// BreakerOpen: retries exhausted; degraded-async mode. Writes
	// succeed locally and their frames wait in the log.
	BreakerOpen
)

func (s BreakerState) String() string {
	switch s {
	case BreakerClosed:
		return "closed"
	case BreakerHalfOpen:
		return "half-open"
	case BreakerOpen:
		return "open"
	}
	return fmt.Sprintf("breaker(%d)", int64(s))
}

// PrimaryOptions configure the primary's delivery hardening.
type PrimaryOptions struct {
	// Retry bounds each frame's delivery attempts.
	Retry RetryPolicy
	// ProbeInterval is the background prober's period while the
	// breaker is open. Default 25ms; negative disables the prober
	// (tests drive recovery with TryDrain).
	ProbeInterval time.Duration
}

func (po PrimaryOptions) withDefaults() PrimaryOptions {
	po.Retry = po.Retry.withDefaults()
	if po.ProbeInterval == 0 {
		po.ProbeInterval = 25 * time.Millisecond
	}
	return po
}

// Breaker returns the shipping breaker's current state and, when not
// closed, the reason it tripped.
func (p *Primary) Breaker() (BreakerState, string) {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.state, p.reason
}

// SpillDepth returns the number of retained frames the peer has not
// acknowledged: what degraded-async mode still owes it.
func (p *Primary) SpillDepth() int {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.spillDepthLocked()
}

func (p *Primary) spillDepthLocked() int {
	return int(p.seq - max(p.acked, p.base-1))
}

// Deposed reports whether shipping observed a newer promotion epoch
// and permanently fenced this primary's transport path (local state
// is untouched; the caller decides what to do with a deposed node).
func (p *Primary) Deposed() bool {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.deposed
}

// shipLocked sequences one record frame into the log and delivers it:
// fenced if deposed; shipped synchronously through the retry policy
// while the breaker is closed — with one catch-up pass when the
// replica's cursor refuses the frame, and a breaker trip when retries
// exhaust; otherwise left in the log above acked for the catch-up loop
// (stream order: a frame must never overtake an unacknowledged
// predecessor). Caller holds p.mu.
func (p *Primary) shipLocked(f *Frame) error {
	if p.deposed {
		return &spash.ReplicationError{Op: "ship", Shard: f.Shard,
			Epoch: f.Epoch, Err: spash.ErrNotPrimary}
	}
	// A full log evicts its oldest frame. That is silent while the peer
	// has acknowledged it; once it has not, the frame is shed: its
	// payload now exists only in the local image, base has moved past
	// acked+1, and the next handshake re-seeds.
	p.seq++
	f.Seq = p.seq
	shed := false
	if p.seq-p.base == primaryLogFrames {
		shed = p.base > p.acked
		p.base++
	}
	p.ring[p.seq%primaryLogFrames] = f
	if p.state == BreakerClosed {
		err := p.shipRetryLocked(f)
		if err == nil {
			p.acked = f.Seq
			return nil
		}
		if isAny(err, spash.ErrNeedsReseed, spash.ErrReplicaLag) {
			// The replica's cursor cannot take this frame as-is: catch
			// up (replay the gap or re-seed), this frame included.
			if _, err = p.catchUpLocked(); err == nil {
				return nil
			}
		} else {
			p.settleLocked(err)
		}
		if p.deposed {
			return err
		}
	}
	// Degraded-async: the local apply stands, so the write is
	// acknowledged with its frame still owed — unless queueing it shed
	// another, which the writer is told with a typed error.
	reg := p.db.Indexes()[boundShard(p.db, f.Shard)].Obs()
	reg.Inc(obs.CReplSpills)
	p.publishDepthLocked()
	if shed {
		reg.Inc(obs.CReplSpillSheds)
		return &spash.ReplicationError{Op: "ship", Shard: f.Shard,
			Epoch: f.Epoch,
			Err: fmt.Errorf("frame log full (%d frames unacknowledged), frame %d shed: %w",
				primaryLogFrames, p.base-1, spash.ErrRetryExhausted)}
	}
	return nil
}

// settleLocked moves the breaker after a shipping pass, the one place
// its transitions are decided: closed when the pass delivered
// everything (acked == seq); permanently fenced when the peer answered
// from a newer epoch — nothing this primary ships can ever apply
// again; open (degraded-async) on any other failure, which counts a
// trip and starts the background prober when it leaves closed. Caller
// holds p.mu.
func (p *Primary) settleLocked(err error) {
	switch {
	case err == nil:
		if p.state != BreakerClosed {
			p.setBreakerLocked(BreakerClosed, "")
		}
	case errors.Is(err, spash.ErrNotPrimary):
		p.deposed = true
		p.setBreakerLocked(BreakerOpen, fmt.Sprintf("deposed: %v", err))
	default:
		if p.state == BreakerClosed {
			p.db.Indexes()[0].Obs().Inc(obs.CReplBreakerTrips)
			p.startProberLocked()
		}
		p.setBreakerLocked(BreakerOpen, err.Error())
	}
	p.publishDepthLocked()
}

// setBreakerLocked moves the breaker and republishes the state gauge
// (on shard 0's registry, where EvalHealth and spash-top read it).
func (p *Primary) setBreakerLocked(s BreakerState, reason string) {
	p.state = s
	p.reason = reason
	p.db.Indexes()[0].Obs().SetGauge(obs.GReplBreakerState, int64(s))
}

// publishDepthLocked republishes the spill-depth gauge.
func (p *Primary) publishDepthLocked() {
	p.db.Indexes()[0].Obs().SetGauge(obs.GReplSpillDepth, int64(p.spillDepthLocked()))
}

// TryDrain attempts one recovery pass when the breaker is not closed:
// the catch-up loop half-opens it, probes the transport with the
// cursor handshake, ships what the peer is owed in order, and closes
// it. Returns the number of owed frames delivered. A transport still
// down re-opens the breaker and returns the frames delivered so far
// with the error; a fencing error deposes. Safe to call in any state
// (a closed breaker owes nothing, so it costs no handshake); the
// background prober does the same on its period.
func (p *Primary) TryDrain() (int, error) {
	p.mu.Lock()
	defer p.mu.Unlock()
	if p.state == BreakerClosed {
		return 0, nil
	}
	return p.catchUpLocked()
}

// startProberLocked launches the background prober (at most one) that
// periodically runs the catch-up loop until the breaker closes, the
// primary is deposed, or it is closed. Caller holds p.mu. A negative
// ProbeInterval disables it (recovery is then driven manually through
// TryDrain).
func (p *Primary) startProberLocked() {
	if p.proberOn || p.closed || p.opts.ProbeInterval < 0 {
		return
	}
	p.proberOn = true
	p.proberWG.Add(1)
	go p.proberLoop()
}

// proberLoop probes on a ticker and exits promptly when Close fires
// the done channel — Close joins it through proberWG, so the loop
// never outlives its Primary.
func (p *Primary) proberLoop() {
	defer p.proberWG.Done()
	ticker := time.NewTicker(p.opts.ProbeInterval)
	defer ticker.Stop()
	for {
		select {
		case <-p.done:
			p.mu.Lock()
			p.proberOn = false
			p.mu.Unlock()
			return
		case <-ticker.C:
		}
		p.mu.Lock()
		if p.closed || p.deposed || p.state == BreakerClosed {
			p.proberOn = false
			p.mu.Unlock()
			return
		}
		_, _ = p.catchUpLocked()
		p.mu.Unlock()
	}
}
