// The catch-up loop: the cursor handshake (Transport.Hello) tells the
// primary the replica's durable applied cursor and whether its image
// rolled back (ADR rejoin). Every frame the log retains above that
// cursor is re-shipped in order; a cursor that has fallen behind the
// log's base — or a reseed-pending image — gets an automated
// seal-verified FullSync re-seed. No operator step in either path.
package repl

import (
	"fmt"

	"spash"
	"spash/internal/obs"
)

// Resync forces one catch-up pass. Shipping runs it automatically —
// on cursor refusals and from the prober — but a caller can force the
// handshake, e.g. right after wiring a primary to a rejoined replica.
func (p *Primary) Resync() error {
	p.mu.Lock()
	defer p.mu.Unlock()
	_, err := p.catchUpLocked()
	return err
}

// catchUpLocked is the one recovery loop: half-open the breaker, run
// the handshake, ship what it calls for, and settle the breaker on the
// outcome. The handshake proves the transport answers before any frame
// is committed to it, and its epoch fences a deposed primary before it
// wastes ships on frames that can never apply. Returns how many owed
// frames — those above acked — it delivered. Caller holds p.mu.
func (p *Primary) catchUpLocked() (drained int, err error) {
	if p.deposed {
		return 0, &spash.ReplicationError{Op: "catch-up", Shard: -1,
			Epoch: p.db.Epoch(), Err: spash.ErrNotPrimary}
	}
	if p.state == BreakerOpen {
		p.setBreakerLocked(BreakerHalfOpen, p.reason)
	}
	defer func() { p.settleLocked(err) }()
	h, err := p.t.Hello()
	if err != nil {
		return 0, fmt.Errorf("repl: hello: %w", err)
	}
	if h.Epoch > p.db.Epoch() {
		return 0, &spash.ReplicationError{Op: "catch-up", Shard: -1,
			Epoch: p.db.Epoch(),
			Err: fmt.Errorf("peer at epoch %d: %w", h.Epoch,
				spash.ErrNotPrimary)}
	}
	reg := p.db.Indexes()[0].Obs()
	reg.Inc(obs.CReplResyncs)
	// A peer ahead of everything this wrapper sequenced has nothing to
	// receive; a peer ahead of acked had acknowledgements lost in
	// flight.
	cursor := min(h.AppliedSeq, p.seq)
	p.acked = max(p.acked, cursor)
	if h.NeedsReseed || cursor+1 < p.base {
		// The image rolled back under its cursor, or the frames above
		// the cursor are no longer all retained (the log overflowed, or
		// an earlier sync failed midway): rebuild from the local image.
		reg.Inc(obs.CReplReseeds)
		_, err = p.syncLocked("reseed")
		return 0, err
	}
	// The peer acknowledges on acceptance but reports its durable
	// cursor, so frames at or below acked go out again whenever it
	// holds some unapplied — as duplicates if it still has them, as
	// the replay that restores them if a rejoin dropped them.
	for seq := cursor + 1; seq <= p.seq; seq++ {
		if err = p.shipRetryLocked(p.ring[seq%primaryLogFrames]); err != nil {
			return drained, fmt.Errorf("repl: catching up at frame %d: %w", seq, err)
		}
		if seq <= p.acked {
			reg.Inc(obs.CReplReplays)
		} else {
			p.acked = seq
			drained++
		}
	}
	return drained, nil
}
