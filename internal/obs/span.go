package obs

import (
	"math/bits"
	"sort"
	"sync/atomic"
)

// Per-operation latency attribution. A Span is a stack-friendly record
// one worker carries through a single index operation, accumulating
// per-phase virtual durations (route, probe, HTM retry, media flush,
// publish). Spans are sampling-gated: the unsampled path is one boolean
// check per instrumentation site and allocates nothing (the span lives
// by value inside the worker's handle). A completed sampled span feeds
// two registry consumers — the per-phase / per-op-kind duration
// histograms on the worker's lane, and the worst-N slow-op log.
//
// Durations are virtual nanoseconds (the pmem.Ctx clock the performance
// model reasons in), except PhaseReplShip, which the replication layer
// records in wall-clock nanoseconds because transport time is outside
// the virtual clock; see internal/repl.

// Phase identifies one attributed segment of an operation's latency.
type Phase int

const (
	// PhaseRoute is everything outside the atomic section and not
	// otherwise attributed: key hashing, shard routing, out-of-line
	// record preparation, result copying.
	PhaseRoute Phase = iota
	// PhaseProbe is the in-transaction lookup: directory resolution and
	// the segment probe (locate) until a hit or proven miss.
	PhaseProbe
	// PhaseHTMRetry is time lost to the two-phase protocol's retry
	// loop: aborted attempts, fallback-lock acquisition spins, and
	// split/resize waits encountered on the way.
	PhaseHTMRetry
	// PhaseMediaFlush is time spent issuing cacheline write-backs on
	// the operation's own path (compacted-chunk flushes, adaptive
	// update flushes).
	PhaseMediaFlush
	// PhasePublish is the mutating tail of the committed attempt: slot
	// stores, hint maintenance, seal recompute, HTM commit.
	PhasePublish
	// PhaseReplShip is the synchronous replication ship of a committed
	// write (wall-clock ns; recorded by internal/repl, not by spans).
	PhaseReplShip

	NumPhases
)

// PhaseNames are the stable export names, indexed by Phase.
var PhaseNames = [...]string{
	PhaseRoute:      "route",
	PhaseProbe:      "probe",
	PhaseHTMRetry:   "htm_retry",
	PhaseMediaFlush: "media_flush",
	PhasePublish:    "publish",
	PhaseReplShip:   "repl_ship",
}

func (p Phase) String() string {
	if int(p) < len(PhaseNames) {
		return PhaseNames[p]
	}
	return "unknown"
}

// SpanKind is the operation kind of a span.
type SpanKind int

const (
	SpanGet SpanKind = iota
	SpanInsert
	SpanUpdate
	SpanDelete

	numSpanKinds
)

// SpanKindNames are the stable export names, indexed by SpanKind.
var SpanKindNames = [...]string{
	SpanGet:    "get",
	SpanInsert: "insert",
	SpanUpdate: "update",
	SpanDelete: "delete",
}

func (k SpanKind) String() string {
	if int(k) < len(SpanKindNames) {
		return SpanKindNames[k]
	}
	return "unknown"
}

// Span is one sampled operation's latency-attribution record. It is a
// plain value (no pointers), embedded by value in the worker's handle,
// so the unsampled path costs one Active check and zero allocations.
// All fields are owned by the worker until the span is recorded.
type Span struct {
	// Active gates every instrumentation site; false = unsampled.
	Active bool
	// Kind is the operation kind; Key its 64-bit hash; Shard the owning
	// shard (-1 or 0 on an unsharded index).
	Kind  SpanKind
	Key   uint64
	Shard int32
	// Aborts counts HTM aborts the operation survived.
	Aborts int32
	// Start is the worker's virtual clock at operation entry.
	Start int64
	// Pending accumulates probe time inside the current attempt; the
	// commit attribution consumes it (exec loop, internal/core).
	Pending int64
	// Dur holds the attributed per-phase durations (virtual ns).
	Dur [NumPhases]int64
}

// durBuckets is the resolution of the duration histograms: log2-spaced
// buckets, bucket b covering [2^(b-1), 2^b) ns, bucket 0 = sub-ns/zero.
// 40 buckets span from 1 ns to ~9 minutes of virtual time.
const durBuckets = 40

// durBucket maps a duration in ns to its histogram bucket.
func durBucket(ns int64) int {
	if ns <= 0 {
		return 0
	}
	b := bits.Len64(uint64(ns))
	if b >= durBuckets {
		return durBuckets - 1
	}
	return b
}

// durBucketNS returns a representative (lower-bound) duration for a
// bucket index.
func durBucketNS(b int) int64 {
	if b <= 0 {
		return 0
	}
	return int64(1) << (b - 1)
}

// DurSnapshot is a summed log2-bucketed duration histogram.
type DurSnapshot struct {
	Counts []int64 `json:"counts"`
}

// Count returns the total number of samples.
func (d DurSnapshot) Count() int64 { return buckets(d.Counts).count() }

// PercentileNS returns a representative duration (bucket lower bound)
// such that at least p percent of samples are ≤ its bucket. p in
// [0, 100]; 0 when empty.
func (d DurSnapshot) PercentileNS(p float64) int64 {
	return durBucketNS(buckets(d.Counts).percentile(p))
}

// Sub returns d - o bucket-wise.
func (d DurSnapshot) Sub(o DurSnapshot) DurSnapshot {
	return DurSnapshot{Counts: buckets(d.Counts).plus(o.Counts, -1)}
}

// Add returns d + o bucket-wise.
func (d DurSnapshot) Add(o DurSnapshot) DurSnapshot {
	return DurSnapshot{Counts: buckets(d.Counts).plus(o.Counts, 1)}
}

// RecordSpan folds a completed sampled span into the lane's per-phase
// and per-op-kind duration histograms and offers it to the registry's
// slow-op log. totalNS is the span's end-to-end virtual duration.
// Nil-safe; inactive spans are ignored.
func (ln *Lane) RecordSpan(sp *Span, totalNS int64) {
	if ln == nil || !sp.Active {
		return
	}
	for p := Phase(0); p < NumPhases; p++ {
		if d := sp.Dur[p]; d > 0 {
			ln.l.phases[p][durBucket(d)].Add(1)
		}
	}
	k := sp.Kind
	if k < 0 || k >= numSpanKinds {
		k = SpanGet
	}
	ln.l.oplat[k][durBucket(totalNS)].Add(1)
	ln.reg.slow.offer(sp, totalNS)
}

// ObservePhaseNS records a single phase duration without a span, on the
// stripe selected by key. The replication layer uses it for the
// repl_ship phase (wall-clock ns). Nil-safe.
func (r *Registry) ObservePhaseNS(p Phase, key uint64, ns int64) {
	if r == nil {
		return
	}
	x := key * 0x9E3779B97F4A7C15
	r.lanes[(x>>32)&r.mask].phases[p][durBucket(ns)].Add(1)
}

// PhaseSnapshot sums phase p's duration histogram across lanes.
func (r *Registry) PhaseSnapshot(p Phase) DurSnapshot {
	s := DurSnapshot{Counts: make([]int64, durBuckets)}
	if r == nil {
		return s
	}
	for i := range r.lanes {
		for b := 0; b < durBuckets; b++ {
			s.Counts[b] += r.lanes[i].phases[p][b].Load()
		}
	}
	return s
}

// OpLatSnapshot sums op kind k's end-to-end latency histogram across
// lanes.
func (r *Registry) OpLatSnapshot(k SpanKind) DurSnapshot {
	s := DurSnapshot{Counts: make([]int64, durBuckets)}
	if r == nil {
		return s
	}
	for i := range r.lanes {
		for b := 0; b < durBuckets; b++ {
			s.Counts[b] += r.lanes[i].oplat[k][b].Load()
		}
	}
	return s
}

// SlowOp is one completed span retained by the slow-op log, rendered
// for export.
type SlowOp struct {
	// Seq orders admissions (1 = first ever admitted); it breaks ties
	// between equal durations and makes eviction order testable.
	Seq uint64 `json:"seq"`
	// Op is the operation kind by name; Key its 64-bit hash.
	Op  string `json:"op"`
	Key uint64 `json:"key_hash"`
	// Shard is the owning shard.
	Shard int `json:"shard"`
	// Aborts is the HTM abort count the operation survived.
	Aborts int `json:"htm_aborts"`
	// StartNS is the worker's virtual clock at operation entry;
	// TotalNS the end-to-end virtual duration.
	StartNS int64 `json:"start_ns"`
	TotalNS int64 `json:"total_ns"`
	// Phases carries the per-phase breakdown (ns), keyed by phase name
	// (zero phases omitted).
	Phases map[string]int64 `json:"phases"`
}

// slowLogSize is the worst-N capacity of the slow-op log.
const slowLogSize = 64

// slowSlot is one retained span. ver is a per-slot seqlock: 0 = empty,
// odd = being written, even > 0 = stable. Writers claim with one CAS
// and drop on contention (losing a race to record one slow op is
// acceptable; blocking the hot path is not).
type slowSlot struct {
	ver    atomic.Uint64
	seq    atomic.Uint64
	total  atomic.Int64
	start  atomic.Int64
	key    atomic.Uint64
	kind   atomic.Int64
	shard  atomic.Int64
	aborts atomic.Int64
	dur    [NumPhases]atomic.Int64
}

// slowLog is the lock-free worst-N log of completed spans. floor
// caches the smallest retained total once the log is full, so the
// common case (an op faster than everything retained) is one atomic
// load.
type slowLog struct {
	slots [slowLogSize]slowSlot
	floor atomic.Int64
	next  atomic.Uint64
}

func (sl *slowLog) offer(sp *Span, totalNS int64) {
	if sl == nil {
		return
	}
	if f := sl.floor.Load(); f > 0 && totalNS <= f {
		return
	}
	// Pick the victim: an empty slot, else the smallest stable total.
	victim, victimTotal, full := -1, int64(1)<<62, true
	for i := range sl.slots {
		v := sl.slots[i].ver.Load()
		if v == 0 {
			victim, victimTotal, full = i, 0, false
			break
		}
		if v&1 == 1 {
			continue // mid-write; treat as occupied
		}
		if t := sl.slots[i].total.Load(); t < victimTotal {
			victim, victimTotal = i, t
		}
	}
	if victim < 0 || (victimTotal >= totalNS && full) {
		return
	}
	s := &sl.slots[victim]
	v := s.ver.Load()
	if v&1 == 1 || !s.ver.CompareAndSwap(v, v+1) {
		return // lost the claim race; drop
	}
	s.seq.Store(sl.next.Add(1))
	s.total.Store(totalNS)
	s.start.Store(sp.Start)
	s.key.Store(sp.Key)
	s.kind.Store(int64(sp.Kind))
	s.shard.Store(int64(sp.Shard))
	s.aborts.Store(int64(sp.Aborts))
	for p := 0; p < int(NumPhases); p++ {
		s.dur[p].Store(sp.Dur[p])
	}
	s.ver.Store(v + 2)
	sl.refloor()
}

// refloor recomputes the cheap-reject floor: the smallest stable total
// when every slot is occupied, 0 otherwise.
func (sl *slowLog) refloor() {
	minTotal := int64(1) << 62
	for i := range sl.slots {
		v := sl.slots[i].ver.Load()
		if v == 0 || v&1 == 1 {
			return // not full (or in flux): no floor
		}
		if t := sl.slots[i].total.Load(); t < minTotal {
			minTotal = t
		}
	}
	sl.floor.Store(minTotal)
}

// snapshot returns the retained ops, slowest first.
func (sl *slowLog) snapshot(n int) []SlowOp {
	if sl == nil {
		return nil
	}
	out := make([]SlowOp, 0, slowLogSize)
	for i := range sl.slots {
		s := &sl.slots[i]
		v := s.ver.Load()
		if v == 0 || v&1 == 1 {
			continue
		}
		op := SlowOp{
			Seq:     s.seq.Load(),
			Op:      SpanKind(s.kind.Load()).String(),
			Key:     s.key.Load(),
			Shard:   int(s.shard.Load()),
			Aborts:  int(s.aborts.Load()),
			StartNS: s.start.Load(),
			TotalNS: s.total.Load(),
			Phases:  make(map[string]int64, int(NumPhases)),
		}
		for p := Phase(0); p < NumPhases; p++ {
			if d := s.dur[p].Load(); d != 0 {
				op.Phases[p.String()] = d
			}
		}
		// A writer may have recycled the slot between the loads; an
		// unchanged version proves the fields belong together.
		if s.ver.Load() != v {
			continue
		}
		out = append(out, op)
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].TotalNS != out[j].TotalNS {
			return out[i].TotalNS > out[j].TotalNS
		}
		return out[i].Seq > out[j].Seq
	})
	if n > 0 && len(out) > n {
		out = out[:n]
	}
	return out
}

// SlowOps returns the worst-n retained operations, slowest first
// (n <= 0 returns everything retained). Nil-safe.
func (r *Registry) SlowOps(n int) []SlowOp {
	if r == nil {
		return nil
	}
	return r.slow.snapshot(n)
}

// MergeSlowOps merges several logs' snapshots (e.g. one per shard)
// into one worst-n list, slowest first.
func MergeSlowOps(lists [][]SlowOp, n int) []SlowOp {
	var out []SlowOp
	for _, l := range lists {
		out = append(out, l...)
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].TotalNS != out[j].TotalNS {
			return out[i].TotalNS > out[j].TotalNS
		}
		return out[i].Seq > out[j].Seq
	})
	if n > 0 && len(out) > n {
		out = out[:n]
	}
	return out
}
