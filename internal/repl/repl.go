// Package repl replicates a spash database to a second node: a
// Primary applies client writes locally and ships them — committed
// op records in steady state, seal-verified segment ranges for bulk
// seeding — to a Replica over a Transport, and a promotion protocol
// turns the replica into the primary when the original dies.
//
// The paper's persistent-cache durability guarantee ends at the
// machine boundary: eADR makes visibility imply durability on one
// node, and this package carries the acknowledged state to a second
// fault domain. The shipping discipline mirrors the single-node trust
// rules — a segment range leaves a device only after it verifies
// against its seals (core.Index.ExportRange), and a replica's devices
// are mutated only through the ordinary crash-consistent operation
// paths, so a replica image is at every instant something
// spash.RecoverAll can reopen (the failover drills in
// internal/crashtest promote mid-crash-sweep and hold the durability
// oracle against the survivor).
//
// Split-brain fencing is the promotion epoch stamped into every
// shard's pool geometry: frames carry the shipping primary's epoch,
// promotion durably bumps the replica's epoch before the write fence
// drops, and a deposed primary's later frames arrive with a stale
// epoch and fail apply with spash.ErrNotPrimary.
//
// Delivery is hardened against an arbitrarily hostile transport
// (drop, delay, duplication, reordering, partition — see
// FaultyTransport and the chaos drills in internal/crashtest). Each
// side keeps ONE bounded, sequence-indexed frame log, and everything
// the hardening does is a cursor moving over it (DESIGN.md §6 has the
// cursor table):
//
//   - Shipping is at-least-once: every Ship attempt runs under a
//     per-frame deadline and a bounded retry policy with exponential
//     backoff and jitter (RetryPolicy). A timed-out frame may still
//     have been delivered, so retries produce duplicates by design.
//   - Apply is exactly-once and in order: the replica acks-and-drops
//     duplicates (Seq at or below its cursor), keeps every accepted
//     but unapplied frame — held back by Pause or parked ahead of a
//     gap by reordering — in its pending log, and persists a durable
//     applied-seq cursor (core.Index.SetAppliedSeq on shard 0) after
//     every apply. A frame is acknowledged on acceptance into that
//     log; that is safe because the primary's log still covers every
//     frame above the peer's durable cursor, and re-seeds otherwise.
//   - The primary's log retains the record frames [base, seq]; acked
//     is the peer's cursor into it. When retries exhaust, a circuit
//     breaker trips into degraded-async mode: writes keep succeeding
//     locally, their frames wait in the log above acked, health
//     reports DEGRADED, and a background prober runs the catch-up
//     loop once the transport recovers.
//   - One catch-up loop serves the prober, TryDrain, Resync and a
//     cursor refusal on the write path: the handshake
//     (Transport.Hello) returns the peer's durable cursor, the
//     primary ships every retained frame above it in order, and when
//     the cursor has fallen behind base — the log overflowed, or an
//     ADR Rejoin rolled back applies the cursor covers — it re-seeds
//     with a seal-verified FullSync instead. No operator step.
//
// The Transport is in-process today; the interface is shaped so a
// future spash-serve wire layer can slot in (frames and fetch
// requests are plain value types with no shared-memory hooks).
package repl

import (
	"errors"
	"fmt"
	"math/rand"
	"slices"
	"sort"
	"sync"
	"time"

	"spash"
	"spash/internal/obs"
)

// KV is one shipped key-value pair.
type KV struct {
	Key []byte `json:"key"`
	Val []byte `json:"val"`
}

// FrameKind discriminates replication messages.
type FrameKind int

const (
	// FrameRecord ships one committed client operation.
	FrameRecord FrameKind = iota
	// FrameSegment ships a seal-verified segment range (bulk seeding:
	// full sync of a fresh replica, or re-seeding after a rejoin).
	FrameSegment
)

// RecOp is the operation of a FrameRecord.
type RecOp int

const (
	RecInsert RecOp = iota
	RecUpdate
	RecDelete
)

// Frame is one replication message. Every frame carries the shipping
// primary's promotion epoch (fencing) and a per-primary sequence
// number (duplicate and gap detection).
type Frame struct {
	Kind  FrameKind
	Epoch uint64
	Seq   uint64
	// Shard is the owning shard (same shard layout on both nodes; the
	// key routing is derived from the key hash, so it agrees by
	// construction).
	Shard int

	// FrameRecord payload.
	Op  RecOp
	Key []byte
	Val []byte

	// FrameSegment payload: every live pair of the (Prefix, Depth)
	// hash range. Depth 0 is the whole shard. Replace marks the
	// payload authoritative: the replica deletes local keys in the
	// range that the payload lacks before upserting it, and re-anchors
	// its sequence cursor at Seq — the frame that carries a FullSync
	// or an automated re-seed.
	Prefix  uint64
	Depth   uint
	Replace bool
	KVs     []KV
}

// FetchReq asks a peer for the authoritative live contents of one
// hash range (replica-backed read-repair).
type FetchReq struct {
	Shard  int
	Prefix uint64
	Depth  uint
}

// Hello is the replica's answer to the cursor handshake: its current
// promotion epoch, the durable applied-sequence cursor (the highest
// frame whose apply is on its devices), and whether its image can no
// longer anchor the record stream (an ADR rejoin rolled back applies
// the cursor covers) and must be re-seeded.
type Hello struct {
	Epoch       uint64
	AppliedSeq  uint64
	NeedsReseed bool
}

// Transport carries frames to, and range fetches from, the peer.
// Ship must be synchronous: it returns only after the peer accepted
// (or rejected) the frame, so a nil return means the write is on both
// nodes. A wire implementation would put acknowledgement latency
// here; the retry policy treats any Ship error that is not a typed
// protocol refusal as transient. Hello is the cheap cursor handshake
// the primary probes and resyncs with.
type Transport interface {
	Ship(f *Frame) error
	Fetch(req FetchReq) ([]KV, error)
	Hello() (Hello, error)
}

// InProc is the in-process Transport: frames apply synchronously to a
// Replica in the same address space. The unit of the failover drills.
type InProc struct {
	R *Replica
}

func (t *InProc) Ship(f *Frame) error              { return t.R.Apply(f) }
func (t *InProc) Fetch(req FetchReq) ([]KV, error) { return t.R.Serve(req) }
func (t *InProc) Hello() (Hello, error)            { return t.R.Hello() }

// primaryLogFrames bounds the primary's frame log: how many frames
// degraded-async mode can owe the peer before a write sheds, and how
// far back a handshake can replay. No caller needs another value.
const primaryLogFrames = 2048

// Primary wraps a primary-role DB with shipping: every write applies
// locally first and then ships to the peer before it is acknowledged
// (synchronously while the circuit breaker is closed; from the frame
// log, later, in degraded-async mode). Like the Session it wraps, a
// Primary is single-worker state for writes — one per goroutine; the
// background prober synchronises with the write path internally.
type Primary struct {
	db   *spash.DB
	s    *spash.Session
	t    Transport
	opts PrimaryOptions

	mu      sync.Mutex
	rng     *rand.Rand
	state   BreakerState
	reason  string
	deposed bool
	closed  bool

	// The frame log. Every record frame with a sequence in [base, seq]
	// is retained at ring[Seq%primaryLogFrames]; appending to a full log
	// overwrites — evicts — the frame at base. acked is the peer's
	// cursor: it has acknowledged everything at or below it. So
	// (acked, seq] is what degraded-async mode still owes the peer,
	// [base, acked] is what a handshake can replay to a peer that lost
	// acknowledged frames, and base > cursor+1 is a gap only a re-seed
	// repairs. While the breaker is closed, acked == seq.
	ring  [primaryLogFrames]*Frame
	base  uint64
	seq   uint64 // last allocated frame sequence
	acked uint64

	proberOn bool
	// done is closed (once) by Close to wake the prober out of its
	// ticker wait; proberWG joins it so Close returns only after the
	// prober goroutine has exited.
	done     chan struct{}
	proberWG sync.WaitGroup
}

// NewPrimary wraps db (which must hold the primary role) for shipping
// over t with default hardening options.
func NewPrimary(db *spash.DB, t Transport) (*Primary, error) {
	return NewPrimaryWith(db, t, PrimaryOptions{})
}

// NewPrimaryWith wraps db for shipping over t under explicit retry and
// prober options.
func NewPrimaryWith(db *spash.DB, t Transport, popts PrimaryOptions) (*Primary, error) {
	if db.IsReplica() {
		return nil, &spash.ReplicationError{Op: "new-primary", Shard: -1,
			Epoch: db.Epoch(), Err: spash.ErrNotPrimary}
	}
	popts = popts.withDefaults()
	db.Indexes()[0].Obs().SetGauge(obs.GReplSpillLimit, primaryLogFrames)
	return &Primary{db: db, s: db.Session(), t: t, opts: popts,
		rng:  rand.New(rand.NewSource(popts.Retry.JitterSeed)),
		base: 1, done: make(chan struct{})}, nil
}

// DB returns the wrapped database.
func (p *Primary) DB() *spash.DB { return p.db }

// Session returns the primary's local session (reads are local-only;
// they never touch the transport).
func (p *Primary) Session() *spash.Session { return p.s }

// Close releases the primary's session (the DB stays open) and stops
// the background prober, waiting for it to exit — after Close returns
// no goroutine of this Primary is running.
func (p *Primary) Close() {
	p.mu.Lock()
	already := p.closed
	p.closed = true
	p.mu.Unlock()
	if !already {
		close(p.done)
	}
	p.proberWG.Wait()
	if !already {
		p.s.Close()
	}
}

// Get reads locally (primary reads never consult the peer).
func (p *Primary) Get(key, dst []byte) ([]byte, bool, error) {
	return p.s.Get(key, dst)
}

// Insert applies the upsert locally, then ships it. A nil return
// means the write is on both nodes while the breaker is closed, or
// acknowledged locally and waiting in the frame log in degraded-async
// mode (health reports DEGRADED for the duration).
func (p *Primary) Insert(key, val []byte) error {
	if err := p.s.Insert(key, val); err != nil {
		return err
	}
	return p.shipRecord(RecInsert, key, val)
}

// Update applies the update locally, then ships it (as an upsert —
// the replica converges on the primary's post-state either way).
// A miss is not shipped.
func (p *Primary) Update(key, val []byte) (bool, error) {
	found, err := p.s.Update(key, val)
	if err != nil || !found {
		return found, err
	}
	return true, p.shipRecord(RecUpdate, key, val)
}

// Delete applies the delete locally, then ships it. A miss is not
// shipped.
func (p *Primary) Delete(key []byte) (bool, error) {
	found, err := p.s.Delete(key)
	if err != nil || !found {
		return found, err
	}
	return true, p.shipRecord(RecDelete, key, nil)
}

func (p *Primary) shipRecord(op RecOp, key, val []byte) error {
	sh := spash.ShardOf(key, p.db.Shards())
	// Ship time is wall-clock, not virtual: the transport (a future
	// wire layer) is outside the performance model's clock. It feeds
	// the repl_ship phase histogram directly, retries included.
	start := time.Now()
	// The frame owns its payload: callers reuse key/val buffers, and
	// the frame outlives the call in the log.
	f := &Frame{Kind: FrameRecord, Epoch: p.db.Epoch(), Shard: sh, Op: op,
		Key: append([]byte(nil), key...), Val: append([]byte(nil), val...)}
	p.mu.Lock()
	err := p.shipLocked(f)
	p.mu.Unlock()
	reg := p.db.Indexes()[sh].Obs()
	reg.ObservePhaseNS(obs.PhaseReplShip, f.Seq, time.Since(start).Nanoseconds())
	if err != nil {
		return fmt.Errorf("repl: shipping record: %w", err)
	}
	return nil
}

// FullSync ships every shard's full live contents as one seal-verified
// segment-range frame per shard. The frames carry Replace semantics,
// so the pass both seeds a fresh (empty) replica and re-converges a
// diverged one (stale local keys are deleted on the far side). The
// primary must be quiescent for the export walk (same contract as
// Fsck). Returns the number of pairs shipped.
func (p *Primary) FullSync() (int, error) {
	p.mu.Lock()
	defer p.mu.Unlock()
	shipped, err := p.syncLocked("full-sync")
	p.settleLocked(err)
	return shipped, err
}

// syncLocked ships one Replace segment frame per shard through the
// retry policy. The image subsumes every retained frame and segment
// frames are rebuilt from the live image, never replayed, so the log
// restarts empty above the sync's own sequence numbers. Those are
// allocated up front and acked moves only once every shard is
// delivered: a sync that fails midway leaves the peer's cursor below
// base, which is the gap the next handshake re-seeds. Caller holds
// p.mu and settles the breaker with the returned error.
func (p *Primary) syncLocked(op string) (int, error) {
	ixs := p.db.Indexes()
	first := p.seq + 1
	p.seq += uint64(len(ixs))
	p.base = p.seq + 1
	clear(p.ring[:])
	shipped := 0
	for i, ix := range ixs {
		kvs, err := exportRange(p.db, i, 0, 0)
		if err != nil {
			return shipped, &spash.ReplicationError{Op: op, Shard: i,
				Epoch: p.db.Epoch(), Err: err}
		}
		f := &Frame{Kind: FrameSegment, Epoch: p.db.Epoch(), Seq: first + uint64(i),
			Shard: i, Prefix: 0, Depth: 0, Replace: true, KVs: kvs}
		if err := p.shipRetryLocked(f); err != nil {
			return shipped, fmt.Errorf("repl: shipping segment range: %w", err)
		}
		ix.Obs().Inc(obs.CReplShipSegments)
		shipped += len(kvs)
	}
	p.acked = p.seq
	return shipped, nil
}

// RepairReport tallies one ReadRepair pass.
type RepairReport struct {
	// Ranges is the number of quarantined ranges fetched from the
	// peer; Fetched the pairs the peer returned; Restored the pairs
	// that were missing locally and were re-inserted.
	Ranges   int `json:"ranges"`
	Fetched  int `json:"fetched"`
	Restored int `json:"restored"`
}

// ReadRepair heals the losses of a local repair pass from the peer:
// for every quarantine in the fsck report it fetches the range's
// authoritative contents over the transport and re-inserts the pairs
// that are missing locally. Keys the quarantine salvaged (or that a
// later write replaced) are left alone — the local survivor wins; only
// absent keys are restored, so the pass is idempotent. Run it after
// Session.Fsck(true) on a quiescent primary.
func (p *Primary) ReadRepair(rep *spash.FsckReport) (*RepairReport, error) {
	out := &RepairReport{}
	for i := range rep.Repairs {
		q := &rep.Repairs[i]
		kvs, err := p.t.Fetch(FetchReq{Shard: q.Shard, Prefix: q.Prefix, Depth: q.Depth})
		if err != nil {
			return out, &spash.ReplicationError{Op: "fetch", Shard: q.Shard,
				Epoch: p.db.Epoch(), Err: err}
		}
		out.Ranges++
		out.Fetched += len(kvs)
		for _, kv := range kvs {
			if _, found, gerr := p.s.Get(kv.Key, nil); gerr == nil && found {
				continue
			}
			if ierr := p.s.Insert(kv.Key, kv.Val); ierr != nil {
				return out, fmt.Errorf("repl: restoring key: %w", ierr)
			}
			out.Restored++
		}
	}
	return out, nil
}

// replicaLogFrames bounds the replica's pending log. No caller needs
// another value; obs.EvalHealth's critical lag threshold is the same
// number, so a full log reads CRITICAL.
const replicaLogFrames = 4096

// Replica wraps a replica-role DB with the apply side of the
// protocol. All entry points (Apply, Serve, Hello, Pause/Resume,
// Promote) are serialised by one mutex: apply order is cursor order.
type Replica struct {
	mu sync.Mutex
	db *spash.DB
	s  *spash.Session // applier session (write-fence exempt)

	// applied mirrors the durable applied-seq cursor on shard 0
	// (everything at or below it is on the devices); next is the
	// highest sequence accepted in order (applied <= next).
	applied uint64
	next    uint64
	// pending is the replica's frame log: every acknowledged frame
	// above applied, sorted by Seq. The run at or below next is what
	// Pause holds back (empty unless paused); anything past next+1 was
	// parked by reordering and waits for its gap to fill. pendingBytes
	// is its payload size, kept as a running total like the per-shard
	// lag gauges.
	pending      []*Frame
	pendingBytes int
	paused       bool
	// needsReseed marks an image that can no longer anchor the record
	// stream: an ADR rejoin rolled back applies the cursor covers.
	// Only a Replace segment frame (automated re-seed) clears it.
	needsReseed bool
	// fresh is set while no frame has been accepted since (re)joining.
	// A fresh replica provably has nothing in reorder flight (its
	// pending log was dropped with the rest of volatile state), so an
	// ahead-of-cursor frame means loss, not reordering: it is refused
	// with ErrReplicaLag — the signal that makes the primary replay or
	// re-seed the gap instead of the log silently acking a frame whose
	// predecessors will never arrive.
	fresh bool
}

// NewReplica wraps db, which must hold the replica role
// (spash.Options.Replica). The stream cursor starts at the durable
// applied cursor on the image (0 on a fresh replica).
func NewReplica(db *spash.DB) (*Replica, error) {
	if !db.IsReplica() {
		return nil, &spash.ReplicationError{Op: "new-replica", Shard: -1,
			Epoch: db.Epoch(), Err: errors.New("db holds the primary role")}
	}
	applied := db.Indexes()[0].AppliedSeq()
	return &Replica{db: db, s: db.ApplierSession(),
		next: applied, applied: applied, fresh: true}, nil
}

// DB returns the wrapped database (reads via its ordinary Sessions).
func (r *Replica) DB() *spash.DB { return r.db }

// Close releases the applier session (the DB stays open).
func (r *Replica) Close() {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.s.Close()
}

// Hello answers the cursor handshake: the durable applied cursor and
// whether the image must be re-seeded.
func (r *Replica) Hello() (Hello, error) {
	r.mu.Lock()
	defer r.mu.Unlock()
	return Hello{Epoch: r.db.Epoch(), AppliedSeq: r.applied,
		NeedsReseed: r.needsReseed}, nil
}

// AppliedSeq returns the durable applied-sequence cursor.
func (r *Replica) AppliedSeq() uint64 {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.applied
}

// Pause holds incoming frames in the pending log instead of applying
// them (models a slow or stalled applier; the held frames are the
// replica's lag). A full log sheds with ErrReplicaLag.
func (r *Replica) Pause() {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.paused = true
}

// Resume drains the held frames through the apply path and stops
// holding. If an apply fails the replica stays paused with the
// remainder still held.
func (r *Replica) Resume() error {
	r.mu.Lock()
	defer r.mu.Unlock()
	if err := r.drainLocked(); err != nil {
		return err
	}
	r.paused = false
	return nil
}

// Lag returns the number of shipped frames not yet applied (the
// pending log's length).
func (r *Replica) Lag() int {
	r.mu.Lock()
	defer r.mu.Unlock()
	return len(r.pending)
}

// LagBytes returns the payload bytes of the shipped frames not yet
// applied.
func (r *Replica) LagBytes() int {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.pendingBytes
}

// frameBytes is a frame's payload size (key + value bytes, summed
// over a segment frame's pairs).
func frameBytes(f *Frame) int {
	n := len(f.Key) + len(f.Val)
	for _, kv := range f.KVs {
		n += len(kv.Key) + len(kv.Val)
	}
	return n
}

// cloneFrame deep-copies a frame the receiver retains beyond the call
// (pending log, transport hold queues): senders own and may reuse the
// original's payload slices.
func cloneFrame(f *Frame) *Frame {
	c := *f
	c.Key = append([]byte(nil), f.Key...)
	c.Val = append([]byte(nil), f.Val...)
	if f.KVs != nil {
		c.KVs = make([]KV, len(f.KVs))
		for i := range f.KVs {
			c.KVs[i] = KV{
				Key: append([]byte(nil), f.KVs[i].Key...),
				Val: append([]byte(nil), f.KVs[i].Val...),
			}
		}
	}
	return &c
}

// searchLocked returns the index of the first pending frame whose
// sequence is at or above seq.
func (r *Replica) searchLocked(seq uint64) int {
	return sort.Search(len(r.pending), func(i int) bool { return r.pending[i].Seq >= seq })
}

// replaceLocked swaps pending[lo:hi] for with — the one place the
// pending log changes, so the lag totals (LagBytes and the per-shard
// repl_lag_records / repl_lag_bytes gauges, which Snapshot and the
// Prometheus exporter pick up) move with it instead of being
// recounted. Caller holds r.mu.
func (r *Replica) replaceLocked(lo, hi int, with ...*Frame) {
	for _, f := range r.pending[lo:hi] {
		r.lagLocked(f.Shard, -1, -frameBytes(f))
	}
	for _, f := range with {
		r.lagLocked(f.Shard, 1, frameBytes(f))
	}
	r.pending = slices.Replace(r.pending, lo, hi, with...)
}

func (r *Replica) lagLocked(sh, recs, bytes int) {
	r.pendingBytes += bytes
	reg := r.db.Indexes()[sh].Obs()
	reg.AddGauge(obs.GReplLagRecords, int64(recs))
	reg.AddGauge(obs.GReplLagBytes, int64(bytes))
}

// Apply ingests one frame: epoch fencing first, then idempotent
// cursor accounting — duplicates (Seq at or below the cursor, or
// already pending) are acked and dropped, ahead-of-cursor frames park
// in the pending log, and only the next-in-stream frame reaches the
// payload path (or is held, while paused), which goes through the
// ordinary crash-consistent operation paths of the applier session —
// never a raw image install, so the replica's devices are recoverable
// at every instant. A Replace segment frame re-anchors the cursor
// (FullSync / automated re-seed). A nil return acknowledges the
// frame: it is applied or in the pending log.
func (r *Replica) Apply(f *Frame) error {
	r.mu.Lock()
	defer r.mu.Unlock()
	if !r.db.IsReplica() {
		// Promoted: this node IS the primary now; whoever is still
		// shipping lost the race.
		return &spash.ReplicationError{Op: "apply", Shard: f.Shard,
			Epoch: r.db.Epoch(), Err: spash.ErrNotPrimary}
	}
	if f.Epoch < r.db.Epoch() {
		// Stale epoch: the sender was deposed by a promotion it has
		// not observed. Fencing, not transport failure.
		return &spash.ReplicationError{Op: "apply", Shard: f.Shard,
			Epoch: r.db.Epoch(), Err: spash.ErrNotPrimary}
	}
	if f.Shard < 0 || f.Shard >= r.db.Shards() {
		// Frames arrive from the wire (REPL.SHIP gob payload): a
		// hostile or corrupt shard number must refuse typed, not panic
		// the replica — and it must refuse before the cursor accounting
		// below could acknowledge the frame.
		return &spash.ReplicationError{Op: "apply", Shard: f.Shard,
			Epoch: r.db.Epoch(),
			Err:   fmt.Errorf("no such shard (have %d)", r.db.Shards())}
	}
	reg := r.db.Indexes()[boundShard(r.db, f.Shard)].Obs()
	anchor := f.Kind == FrameSegment && f.Replace
	if r.needsReseed && !anchor {
		// The image rolled back under the cursor: record frames cannot
		// anchor (a duplicate ack here would vouch for data the crash
		// took). Only a re-seed recovers the stream.
		return &spash.ReplicationError{Op: "apply", Shard: f.Shard,
			Epoch: r.db.Epoch(),
			Err: fmt.Errorf("applied cursor %d unanchored after rollback: %w",
				r.applied, spash.ErrNeedsReseed)}
	}
	// An ahead frame has a gap still in flight below it. A re-anchor is
	// never ahead: the authoritative range image subsumes whatever sits
	// between the cursor and its Seq.
	ahead := f.Seq > r.next+1 && !anchor
	at := r.searchLocked(f.Seq)
	switch {
	case f.Seq <= r.next, at < len(r.pending) && r.pending[at].Seq == f.Seq:
		reg.Inc(obs.CReplApplyDupes) // duplicate: acked and dropped
	case ahead && r.fresh:
		// Nothing has been accepted since (re)joining, so the gap is
		// known loss and parking would ack a frame that can never
		// apply. Refuse typed; the sender resyncs.
		return &spash.ReplicationError{Op: "apply", Shard: f.Shard,
			Epoch: r.db.Epoch(),
			Err: fmt.Errorf("stream unanchored since (re)join (cursor %d, got %d): %w",
				r.next, f.Seq, spash.ErrReplicaLag)}
	case (ahead || r.paused) && len(r.pending) >= replicaLogFrames:
		// Refused, not acknowledged: the sender retries or resyncs.
		reg.Inc(obs.CReplSheds)
		return &spash.ReplicationError{Op: "apply", Shard: f.Shard,
			Epoch: r.db.Epoch(),
			Err: fmt.Errorf("pending log full (%d frames above applied cursor %d), frame %d refused: %w",
				len(r.pending), r.applied, f.Seq, spash.ErrReplicaLag)}
	case ahead:
		r.replaceLocked(at, at, cloneFrame(f))
	default:
		// In order. Parked frames below a re-anchor are subsumed by
		// it; frames held back by Pause are not — they apply first, on
		// Resume.
		held := r.searchLocked(r.next + 1)
		if r.paused {
			r.replaceLocked(held, at, cloneFrame(f))
		} else {
			if err := r.applyLocked(f); err != nil {
				// No cursor moved: the sender's retry re-applies
				// (upserts and deletes are idempotent).
				return err
			}
			r.replaceLocked(held, at)
		}
		if anchor {
			r.needsReseed = false
		}
		r.fresh = false
		r.next = f.Seq
	}
	if r.paused {
		return nil
	}
	return r.drainLocked()
}

// drainLocked applies, in order, every pending frame the cursor has
// reached: the run Pause held back, then each parked frame as it
// becomes next+1. A frame whose apply fails stays at the head of the
// log with everything behind it — acknowledged frames are never
// dropped — and the next drain tries it again. Caller holds r.mu.
func (r *Replica) drainLocked() error {
	n := 0
	var err error
	for n < len(r.pending) && r.pending[n].Seq <= r.next+1 {
		f := r.pending[n]
		if err = r.applyLocked(f); err != nil {
			break
		}
		r.next = max(r.next, f.Seq)
		n++
	}
	r.replaceLocked(0, n)
	return err
}

func (r *Replica) applyLocked(f *Frame) error {
	if f.Shard < 0 || f.Shard >= r.db.Shards() {
		// Apply refuses out-of-range shards on entry; this guards the
		// indexing below against frames resurfacing from the pending
		// log of an older process image.
		return &spash.ReplicationError{Op: "apply", Shard: f.Shard,
			Epoch: r.db.Epoch(),
			Err:   fmt.Errorf("no such shard (have %d)", r.db.Shards())}
	}
	ix := r.db.Indexes()[f.Shard]
	switch f.Kind {
	case FrameRecord:
		switch f.Op {
		case RecInsert, RecUpdate:
			if err := r.s.Insert(f.Key, f.Val); err != nil {
				return fmt.Errorf("repl: applying record: %w", err)
			}
		case RecDelete:
			if _, err := r.s.Delete(f.Key); err != nil {
				return fmt.Errorf("repl: applying delete: %w", err)
			}
		default:
			return fmt.Errorf("repl: unknown record op %d", int(f.Op))
		}
	case FrameSegment:
		if f.Replace {
			if err := r.reconcileLocked(f); err != nil {
				return err
			}
		} else {
			for _, kv := range f.KVs {
				if err := r.s.Insert(kv.Key, kv.Val); err != nil {
					return fmt.Errorf("repl: applying segment range: %w", err)
				}
			}
		}
		ix.Obs().Inc(obs.CReplApplySegments)
	default:
		return fmt.Errorf("repl: unknown frame kind %d", int(f.Kind))
	}
	r.persistCursorLocked(f.Seq)
	return nil
}

// reconcileLocked installs an authoritative range image: local keys
// in the range that the payload lacks are deleted (a delete the
// replica missed must not survive a re-seed), then every payload pair
// upserts. All mutations go through the ordinary crash-consistent
// operation paths, so the image stays recoverable mid-reconcile.
func (r *Replica) reconcileLocked(f *Frame) error {
	have := make(map[string]struct{}, len(f.KVs))
	for i := range f.KVs {
		have[string(f.KVs[i].Key)] = struct{}{}
	}
	local, err := exportRange(r.db, f.Shard, f.Prefix, f.Depth)
	if err != nil {
		return fmt.Errorf("repl: reconciling range: %w", err)
	}
	for i := range local {
		if _, ok := have[string(local[i].Key)]; ok {
			continue
		}
		if _, err := r.s.Delete(local[i].Key); err != nil {
			return fmt.Errorf("repl: reconciling range: %w", err)
		}
	}
	for _, kv := range f.KVs {
		if err := r.s.Insert(kv.Key, kv.Val); err != nil {
			return fmt.Errorf("repl: applying segment range: %w", err)
		}
	}
	return nil
}

// persistCursorLocked durably advances the applied-seq cursor on
// shard 0 after an apply completed. Under eADR the cursor is exact;
// under ADR a crash can roll back applies the cursor covers, which
// Rejoin detects via the device's lost-line count and converts into a
// reseed condition.
func (r *Replica) persistCursorLocked(seq uint64) {
	if seq <= r.applied {
		return
	}
	ix := r.db.Indexes()[0]
	c := ix.Pool().NewCtx()
	ix.SetAppliedSeq(c, seq)
	c.Release()
	r.applied = seq
}

// Serve answers a peer's range fetch with the authoritative live
// contents of the (Shard, Prefix, Depth) range, exported segment by
// seal-verified segment. The replica should be quiescent for the walk
// (read-repair runs inside a repair window).
func (r *Replica) Serve(req FetchReq) ([]KV, error) {
	r.mu.Lock()
	defer r.mu.Unlock()
	if req.Shard < 0 || req.Shard >= r.db.Shards() {
		return nil, &spash.ReplicationError{Op: "fetch", Shard: req.Shard,
			Epoch: r.db.Epoch(), Err: fmt.Errorf("no such shard (have %d)", r.db.Shards())}
	}
	kvs, err := exportRange(r.db, req.Shard, req.Prefix, req.Depth)
	if err != nil {
		return nil, &spash.ReplicationError{Op: "fetch", Shard: req.Shard,
			Epoch: r.db.Epoch(), Err: err}
	}
	return kvs, nil
}

// Promote turns the replica into the primary: refuse if any shipped
// frame is still unapplied (promoting over lag would drop writes the
// old primary acknowledged) or the image awaits a re-seed, then
// durably advance the epoch on every shard and drop the write fence
// (spash.DB.Promote). Returns the new epoch. After promotion, Apply
// rejects everything — the deposed primary's frames by the epoch
// fence.
func (r *Replica) Promote() (uint64, error) {
	r.mu.Lock()
	defer r.mu.Unlock()
	if n := len(r.pending); n > 0 {
		return 0, &spash.ReplicationError{Op: "promote", Shard: -1,
			Epoch: r.db.Epoch(),
			Err:   fmt.Errorf("%d frames unapplied: %w", n, spash.ErrReplicaLag)}
	}
	if r.needsReseed {
		return 0, &spash.ReplicationError{Op: "promote", Shard: -1,
			Epoch: r.db.Epoch(),
			Err: fmt.Errorf("image awaits re-seed (applied cursor %d rolled back): %w",
				r.applied, spash.ErrNeedsReseed)}
	}
	return r.db.Promote()
}

// Rejoin simulates the replica node itself power-cycling: the applier
// session closes, every device takes a crash, and the replica reopens
// through spash.RecoverAll — the same recovery path a standalone
// database uses, which is the point: because apply only ever goes
// through ordinary operation paths, a replica image is always
// recoverable. The stream cursor is re-derived from the durable
// applied cursor on the recovered image; the pending log's
// (acknowledged but unapplied) frames are gone, and the primary's
// cursor handshake replays or re-seeds them — no caller bookkeeping.
// Under eADR nothing applied is lost; under ADR the crash may roll
// back applies the cursor already covers, in which case the replica
// marks itself reseed-pending and Rejoin returns a typed
// ErrNeedsReseed (the replica stays wired: the primary's next ship
// auto-resyncs).
func (r *Replica) Rejoin(opts spash.Options) error {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.replaceLocked(0, len(r.pending))
	r.s.Close()
	r.db.Close()
	platforms := r.db.Platforms()
	lost := r.db.Crash()
	opts.Replica = true
	db, err := spash.RecoverAll(platforms, opts)
	if err != nil {
		return fmt.Errorf("repl: rejoining: %w", err)
	}
	r.db = db
	r.s = db.ApplierSession()
	r.paused = false
	r.applied = db.Indexes()[0].AppliedSeq()
	r.next = r.applied
	r.fresh = true
	if lost > 0 {
		// Unflushed lines rolled back: the image may no longer hold
		// applies the cursor vouches for. Only a re-seed re-anchors.
		r.needsReseed = true
		return &spash.ReplicationError{Op: "rejoin", Shard: -1, Epoch: db.Epoch(),
			Err: fmt.Errorf("%d unflushed line(s) rolled back under applied cursor %d: %w",
				lost, r.applied, spash.ErrNeedsReseed)}
	}
	r.needsReseed = false
	return nil
}

// boundShard clamps a frame's shard into the db's range for metric
// attribution (a malformed frame must not panic the registry lookup;
// the payload path validates separately).
func boundShard(db *spash.DB, sh int) int {
	if sh < 0 || sh >= db.Shards() {
		return 0
	}
	return sh
}

// exportRange collects one shard's live pairs in the (prefix, depth)
// hash range through the seal-verified export walk.
func exportRange(db *spash.DB, sh int, prefix uint64, depth uint) ([]KV, error) {
	ix := db.Indexes()[sh]
	c := ix.Pool().NewCtx()
	defer c.Release()
	var out []KV
	err := ix.ExportRange(c, prefix, depth, func(k, v []byte) error {
		out = append(out, KV{
			Key: append([]byte(nil), k...),
			Val: append([]byte(nil), v...),
		})
		return nil
	})
	if err != nil {
		return nil, err
	}
	return out, nil
}
