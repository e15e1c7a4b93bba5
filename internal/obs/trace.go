package obs

import (
	"encoding/json"
	"io"
	"sort"
	"sync/atomic"
)

// EventKind classifies a structural trace event.
type EventKind uint8

const (
	// EvSplit: a segment split committed. A = new local depth,
	// B = live entries relocated.
	EvSplit EventKind = iota
	// EvSplitFallback: a split completed on the locked fallback path.
	// A = local depth before the split.
	EvSplitFallback
	// EvMerge: a buddy merge committed. A = merged local depth,
	// B = combined live entries.
	EvMerge
	// EvDoubleStart / EvDoubleDone bracket a collaborative staged
	// doubling. Start: A = old global depth. Done: A = new global
	// depth, B = virtual duration (ns) of the doubling role.
	EvDoubleStart
	EvDoubleDone
	// EvStopWorld: a stop-the-world resize (monolithic doubling or
	// halving) completed. A = new global depth (or -1 when aborted),
	// B = virtual stall duration (ns).
	EvStopWorld
	// EvLockFallback: an operation took the per-segment fallback lock.
	// A = top 16 bits of the key hash (coarse partition identity).
	EvLockFallback
	// EvHTMCapacity: a transaction exceeded the HTM capacity budget.
	// A = top 16 bits of the key hash.
	EvHTMCapacity
	// EvQuarantine: a damaged segment was dropped and rebuilt from
	// salvage. A = segment address, B = entries salvaged.
	EvQuarantine
	// EvRecoverStart / EvRecoverDone bracket a shard recovery.
	// Done: A = virtual duration (ns), B = segments adopted.
	EvRecoverStart
	EvRecoverDone
	// EvFsckStart / EvFsckDone bracket a full integrity check.
	// Start: A = 1 when repairing. Done: A = faults found,
	// B = segments left unrecoverable.
	EvFsckStart
	EvFsckDone

	numEventKinds
)

// EventKindNames are the stable export names, indexed by EventKind.
var EventKindNames = [...]string{
	EvSplit:         "split",
	EvSplitFallback: "split_fallback",
	EvMerge:         "merge",
	EvDoubleStart:   "double_start",
	EvDoubleDone:    "double_done",
	EvStopWorld:     "stop_world",
	EvLockFallback:  "lock_fallback",
	EvHTMCapacity:   "htm_capacity",
	EvQuarantine:    "quarantine",
	EvRecoverStart:  "recover_start",
	EvRecoverDone:   "recover_done",
	EvFsckStart:     "fsck_start",
	EvFsckDone:      "fsck_done",
}

func (k EventKind) String() string {
	if int(k) < len(EventKindNames) {
		return EventKindNames[k]
	}
	return "unknown"
}

// Event is one drained trace entry. Seq orders events globally (1 is
// the first event since registry creation); TS is the emitting
// worker's virtual clock in ns.
type Event struct {
	Seq  uint64    `json:"seq"`
	TS   int64     `json:"ts_ns"`
	Kind EventKind `json:"-"`
	A    int64     `json:"a"`
	B    int64     `json:"b"`
}

// MarshalJSON emits the kind by name.
func (e Event) MarshalJSON() ([]byte, error) {
	return json.Marshal(struct {
		Seq  uint64 `json:"seq"`
		TS   int64  `json:"ts_ns"`
		Kind string `json:"ev"`
		A    int64  `json:"a"`
		B    int64  `json:"b"`
	}{e.Seq, e.TS, e.Kind.String(), e.A, e.B})
}

// DefaultRingSize is the trace-ring capacity used by NewRegistry.
const DefaultRingSize = 4096

type slot struct {
	// seq is written last (publish). 0 = never written.
	seq  atomic.Uint64
	ts   atomic.Int64
	kind atomic.Uint64
	a    atomic.Int64
	b    atomic.Int64
}

// Ring is a fixed-size lock-free ring of structural events: writers
// claim a slot with one atomic add and publish fields with atomic
// stores, so tracing never blocks the hot path and the ring is safe
// under -race. Old events are overwritten; Drain returns the retained
// window. A slot being overwritten concurrently with a drain is
// detected by its sequence word and dropped rather than returned torn.
type Ring struct {
	slots []slot
	mask  uint64
	head  atomic.Uint64
}

func newRing(size int) *Ring {
	n := 1
	for n < size {
		n <<= 1
	}
	return &Ring{slots: make([]slot, n), mask: uint64(n - 1)}
}

func (r *Ring) add(kind EventKind, ts, a, b int64) {
	seq := r.head.Add(1)
	s := &r.slots[(seq-1)&r.mask]
	// Invalidate while rewriting so a concurrent drain drops the slot
	// instead of pairing the old seq with new fields.
	s.seq.Store(0)
	s.ts.Store(ts)
	s.kind.Store(uint64(kind))
	s.a.Store(a)
	s.b.Store(b)
	s.seq.Store(seq)
}

// Len returns the number of events currently retained.
func (r *Ring) Len() int {
	if r == nil {
		return 0
	}
	n := r.head.Load()
	if n > uint64(len(r.slots)) {
		n = uint64(len(r.slots))
	}
	return int(n)
}

// Drain returns the retained events, oldest first. It does not clear
// the ring. Under concurrent writers the result is a best-effort
// consistent window: slots caught mid-rewrite are omitted.
func (r *Ring) Drain() []Event {
	if r == nil {
		return nil
	}
	out := make([]Event, 0, len(r.slots))
	for i := range r.slots {
		s := &r.slots[i]
		seq := s.seq.Load()
		if seq == 0 {
			continue
		}
		ev := Event{
			Seq:  seq,
			TS:   s.ts.Load(),
			Kind: EventKind(s.kind.Load()),
			A:    s.a.Load(),
			B:    s.b.Load(),
		}
		// A writer may have recycled the slot between the loads; the
		// publish order (seq last) means an unchanged seq proves the
		// fields belong together.
		if s.seq.Load() != seq {
			continue
		}
		out = append(out, ev)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Seq < out[j].Seq })
	return out
}

// WriteJSON writes the drained events as a JSON array.
func (r *Ring) WriteJSON(w io.Writer) error {
	enc := json.NewEncoder(w)
	return enc.Encode(r.Drain())
}
