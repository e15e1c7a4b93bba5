// Replication roles, promotion, and the typed errors of the
// replication protocol (the shipping machinery itself lives in
// internal/repl; the role fencing has to live here because every
// Session write consults it).
//
// A DB opened with Options.Replica is a replica: its devices are
// mutated only by the replication apply path (ApplierSession), every
// client write fails typed with ErrNotPrimary, and reads stay
// available (possibly stale, bounded by the shipping lag). Promote
// flips the role after durably advancing the promotion epoch stamped
// in every shard's pool geometry — the fencing token that lets a
// promoted replica reject frames a deposed primary keeps shipping.
package spash

import (
	"errors"
	"fmt"
)

// Replication sentinels, matched with errors.Is.
var (
	// ErrNotPrimary is returned (wrapped in a *ReplicationError) by
	// write operations on a replica-role DB, and by replication apply
	// when a frame carries a stale promotion epoch (split-brain
	// fencing).
	ErrNotPrimary = errors.New("spash: not the primary")
	// ErrReplicaLag is returned (wrapped in a *ReplicationError) when
	// an operation requires a fully caught-up replica — promotion with
	// unapplied frames buffered loses acknowledged writes, so it is
	// refused. The replica's apply path also wraps it when a frame
	// cannot be accepted: it is ahead of the cursor of a replica that
	// has accepted nothing since (re)joining (known loss, not
	// reordering), or it would have to enter a full pending log. The
	// frame is not acknowledged; the sender must retry or resync.
	ErrReplicaLag = errors.New("spash: replica lags the primary")
	// ErrTransportTimeout is returned (wrapped in a *ReplicationError)
	// when one Ship attempt misses its per-frame deadline. The retry
	// policy (internal/repl.RetryPolicy) treats it as transient and
	// retries with backoff; the frame may still have been delivered —
	// the replica's idempotent apply absorbs the duplicate.
	ErrTransportTimeout = errors.New("spash: replication transport timeout")
	// ErrRetryExhausted is returned (wrapped in a *ReplicationError)
	// when every retry of a frame failed and the primary tripped its
	// circuit breaker into degraded-async mode, or when a write's frame
	// pushed an unacknowledged one out of the primary's full frame log
	// (the local apply stands; the next handshake re-seeds the peer).
	ErrRetryExhausted = errors.New("spash: replication retries exhausted")
	// ErrNeedsReseed is returned (wrapped in a *ReplicationError) when
	// a replica's durable applied cursor can no longer anchor the
	// record stream: an ADR rejoin rolled back applies the cursor
	// covers, or the cursor fell behind the primary's replayable
	// horizon. The primary's auto-resync answers it with a
	// seal-verified FullSync re-seed; no operator step is needed.
	ErrNeedsReseed = errors.New("spash: replica needs reseed")
)

// ReplicationError is the typed error of the replication protocol:
// which operation was refused, on which shard (-1 when the operation
// is not shard-specific), and at which local promotion epoch. Match
// the cause with errors.Is (ErrNotPrimary, ErrReplicaLag) and the
// type with errors.As.
type ReplicationError struct {
	// Op names the refused operation ("insert", "promote", "apply",
	// "fetch", ...).
	Op string
	// Shard is the shard the operation addressed, -1 when none.
	Shard int
	// Epoch is the local promotion epoch at refusal time.
	Epoch uint64
	// Err is the cause (ErrNotPrimary, ErrReplicaLag, or a transport
	// error).
	Err error
}

func (e *ReplicationError) Error() string {
	if e.Shard >= 0 {
		return fmt.Sprintf("spash: replication %s on shard %d (epoch %d): %v", e.Op, e.Shard, e.Epoch, e.Err)
	}
	return fmt.Sprintf("spash: replication %s (epoch %d): %v", e.Op, e.Epoch, e.Err)
}

func (e *ReplicationError) Unwrap() error { return e.Err }

// IsReplica reports whether the DB is currently in the replica role
// (writes fenced; see Options.Replica and Promote).
func (db *DB) IsReplica() bool { return db.replica.Load() }

// Epoch returns the promotion epoch stamped on the database's devices:
// 1 for a freshly opened DB, advanced by Promote. All shards carry the
// same epoch (RecoverAll validates agreement).
func (db *DB) Epoch() uint64 { return db.units[0].Ix.Epoch() }

// Promote turns a replica-role DB into the primary. The epoch word in
// every shard's pool geometry is durably advanced first (store, flush,
// fence per shard), then the write fence drops; a frame shipped by a
// deposed primary afterwards carries the old epoch and fails apply
// with ErrNotPrimary. The DB must be quiescent and fully caught up —
// the replication layer (internal/repl.Replica.Promote) drains and
// checks lag before calling this. Promoting a DB that is already
// primary is an error.
func (db *DB) Promote() (uint64, error) {
	if db.closed.Load() {
		return 0, ErrClosed
	}
	if !db.replica.Load() {
		return db.Epoch(), &ReplicationError{Op: "promote", Shard: -1, Epoch: db.Epoch(),
			Err: errors.New("already primary")}
	}
	// Each shard gets a fresh context (same reasoning as TryShrink:
	// the bootstrap context's virtual clock must stay per-worker).
	for _, u := range db.units {
		c := u.Pool.NewCtx()
		u.Ix.BumpEpoch(c)
		c.Release()
	}
	db.replica.Store(false)
	return db.Epoch(), nil
}

// ApplierSession returns a session exempt from the replica write
// fence: the replication apply path (internal/repl.Replica) mutates
// the replica's shards through it. Everything else about the session
// is ordinary — one per applier goroutine, Close when done. Misusing
// it for client writes forfeits the replica's crash-consistency
// contract with its primary.
func (db *DB) ApplierSession() *Session {
	s := db.Session()
	s.applier = true
	return s
}

// writeGate is the common precondition of every Session write: the DB
// must be open, and — unless this is the replication applier — must
// currently hold the primary role.
func (s *Session) writeGate(op string, key []byte) error {
	if s.db.closed.Load() {
		return ErrClosed
	}
	if s.db.replica.Load() && !s.applier {
		return &ReplicationError{
			Op:    op,
			Shard: shardOfKey(key, len(s.hs)),
			Epoch: s.db.Epoch(),
			Err:   ErrNotPrimary,
		}
	}
	return nil
}
