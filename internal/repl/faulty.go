// FaultyTransport wraps a Transport with seeded, configurable
// misbehaviour — drops, delays, duplicates, reordering, partition —
// for the chaos drills in internal/crashtest. Its faults are honest
// about acknowledgement: a frame is only ever acked (nil Ship return)
// when the inner transport really accepted it. A "dropped" or
// "delayed" frame may or may not have reached the peer, but the
// caller always sees an error for it — exactly the ambiguity a real
// lossy network produces, and the reason shipping must be
// at-least-once and apply exactly-once.
package repl

import (
	"fmt"
	"math/rand"
	"sync"

	"spash"
)

// FaultSpec configures a FaultyTransport. The rates are independent
// per-Ship probabilities checked in order (drop, delay, dup,
// reorder); the first that fires wins.
type FaultSpec struct {
	// Seed makes the fault sequence deterministic.
	Seed int64
	// Drop is the probability a Ship is swallowed: the frame does NOT
	// reach the peer and the caller gets a timeout error.
	Drop float64
	// Delay is the probability a Ship is delivered but its ack is
	// lost: the frame DOES reach the peer, the caller gets a timeout
	// error, and the inevitable retry arrives as a duplicate.
	Delay float64
	// Dup is the probability a Ship is delivered twice back to back
	// (ack returned normally).
	Dup float64
	// Reorder is the probability a Ship is held — not delivered, not
	// acked — and released after a later frame passes through (or at
	// Heal), arriving out of order as an unacked straggler.
	Reorder float64
	// PartitionAfter, when positive, hard-partitions the transport
	// after that many Ship attempts: every Ship, Fetch, and Hello
	// fails until Heal. Models a network cut mid-workload.
	PartitionAfter int
}

// FaultStats counts what the transport actually did.
type FaultStats struct {
	Ships          int // Ship attempts observed
	Drops          int // swallowed (never delivered)
	Delays         int // delivered but ack lost
	Dups           int // delivered twice
	Reorders       int // held for out-of-order release
	PartitionDrops int // refused while partitioned
}

// FaultyTransport injects seeded faults in front of an inner
// Transport. Safe for concurrent use.
type FaultyTransport struct {
	Inner Transport

	mu          sync.Mutex
	spec        FaultSpec
	rng         *rand.Rand
	stats       FaultStats
	held        []*Frame
	partitioned bool
}

// NewFaultyTransport wraps inner with the given fault spec.
func NewFaultyTransport(inner Transport, spec FaultSpec) *FaultyTransport {
	return &FaultyTransport{Inner: inner, spec: spec,
		rng: rand.New(rand.NewSource(spec.Seed))}
}

// Stats returns a snapshot of the fault counters.
func (t *FaultyTransport) Stats() FaultStats {
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.stats
}

// Cut hard-partitions the transport immediately: every Ship, Fetch,
// and Hello fails until Heal. The deterministic alternative to
// PartitionAfter for drills that cut at a workload position rather
// than an attempt count.
func (t *FaultyTransport) Cut() {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.partitioned = true
}

// Heal reconnects a partitioned transport and releases any held
// (reordered) frames to the peer. Held frames were never acked, so
// their delivery errors are discarded — the peer either absorbs them
// as duplicates/window fills or sheds them, and the sender's resync
// machinery owns convergence.
func (t *FaultyTransport) Heal() {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.partitioned = false
	t.flushHeldLocked()
}

func (t *FaultyTransport) flushHeldLocked() {
	held := t.held
	t.held = nil
	for _, f := range held {
		_ = t.Inner.Ship(f)
	}
}

// timeoutErr is the ambiguous-outcome error every non-delivering
// fault surfaces: the caller cannot tell a swallowed frame from a
// delivered-but-unacked one, so it must retry into idempotent apply.
func timeoutErr(f *Frame, what string) error {
	return &spash.ReplicationError{Op: "ship", Shard: f.Shard, Epoch: f.Epoch,
		Err: fmt.Errorf("injected %s of frame %d: %w", what, f.Seq,
			spash.ErrTransportTimeout)}
}

func (t *FaultyTransport) Ship(f *Frame) error {
	t.mu.Lock()
	t.stats.Ships++
	if t.spec.PartitionAfter > 0 && t.stats.Ships > t.spec.PartitionAfter {
		t.partitioned = true
	}
	if t.partitioned {
		t.stats.PartitionDrops++
		t.mu.Unlock()
		return timeoutErr(f, "partition drop")
	}
	roll := t.rng.Float64()
	switch {
	case roll < t.spec.Drop:
		t.stats.Drops++
		t.mu.Unlock()
		return timeoutErr(f, "drop")
	case roll < t.spec.Drop+t.spec.Delay:
		t.stats.Delays++
		t.mu.Unlock()
		// Delivered for real, but the ack is "lost": the caller's
		// retry will land a duplicate.
		_ = t.Inner.Ship(f)
		return timeoutErr(f, "ack loss")
	case roll < t.spec.Drop+t.spec.Delay+t.spec.Dup:
		t.stats.Dups++
		t.mu.Unlock()
		err := t.Inner.Ship(f)
		if err == nil {
			_ = t.Inner.Ship(f) // the duplicate
		}
		return err
	case roll < t.spec.Drop+t.spec.Delay+t.spec.Dup+t.spec.Reorder:
		t.stats.Reorders++
		// Held WITHOUT ack (acking an undelivered frame would forge
		// durability): released after the next frame passes, arriving
		// out of order.
		t.held = append(t.held, cloneFrame(f))
		t.mu.Unlock()
		return timeoutErr(f, "reorder hold")
	}
	t.mu.Unlock()
	err := t.Inner.Ship(f)
	if err == nil {
		// A frame got through: release any held stragglers behind it,
		// out of order now by construction.
		t.mu.Lock()
		t.flushHeldLocked()
		t.mu.Unlock()
	}
	return err
}

func (t *FaultyTransport) Fetch(req FetchReq) ([]KV, error) {
	t.mu.Lock()
	cut := t.partitioned
	t.mu.Unlock()
	if cut {
		return nil, fmt.Errorf("faulty: fetch during partition: %w",
			spash.ErrTransportTimeout)
	}
	return t.Inner.Fetch(req)
}

func (t *FaultyTransport) Hello() (Hello, error) {
	t.mu.Lock()
	cut := t.partitioned
	t.mu.Unlock()
	if cut {
		return Hello{}, fmt.Errorf("faulty: hello during partition: %w",
			spash.ErrTransportTimeout)
	}
	return t.Inner.Hello()
}
