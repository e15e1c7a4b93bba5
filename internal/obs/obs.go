// Package obs is the unified observability layer: a metrics registry
// of cache-line-padded striped counters and bounded-value histograms,
// a lock-free trace ring of timestamped structural events, a Snapshot
// type that unifies the per-subsystem counters (pmem media traffic,
// HTM outcomes, allocator occupancy, index structure churn) into one
// diffable document, and an export surface (expvar, Prometheus text,
// pprof — see export.go).
//
// The paper validates every design claim by counting exactly these
// events: ipmctl media read/write bytes for the write-amplification
// argument (Fig 8), HTM abort rates for the two-phase protocol (§IV-A)
// and the structural events of splits and staged doubling (§IV-B). The
// registry makes those quantities first-class for any run; each event
// is counted at one site, and every metric has a named reader
// (consumers_test.go).
//
// Hot-path cost. All mutation methods are nil-safe: a disabled
// registry is a nil *Registry (and nil *Lane), so instrumentation
// call sites cost one predictable branch when observability is off.
// When on, each worker increments its own cache-line-padded lane, so
// counters are contention-free under any worker count.
package obs

import (
	"runtime"
	"sync/atomic"
)

// Counter identifies one structural-event counter. The set mirrors the
// events the paper reasons about; see CounterNames for the export
// names and EXPERIMENTS.md's observable table for the figure mapping.
type Counter int

const (
	// CSplits counts committed segment splits (§III-A).
	CSplits Counter = iota
	// CSplitFallbacks counts splits that completed on the irrevocable
	// directory-locked path after the transactional path kept aborting.
	CSplitFallbacks
	// CMerges counts committed buddy-segment merges.
	CMerges
	// CDoubles counts completed directory doublings (§IV-B).
	CDoubles
	// CCollabStages counts doubling partition-copy stages executed
	// collaboratively by concurrent operations.
	CCollabStages
	// CLockFallbacks counts operations that took the per-segment
	// fallback lock (the two-phase protocol's slow path, §IV-A). HTM
	// aborts are counted once, by the TM (Snapshot.HTM).
	CLockFallbacks
	// CUpdateInPlace / CUpdateAppend classify adaptive updates
	// (§III-B): value overwritten in place (same size class or inline)
	// vs. a fresh record appended.
	CUpdateInPlace
	CUpdateAppend
	// CFlushSkipHot / CFlushSkipSmall count update flushes elided by
	// the Table I policy (hot entry; ≤ 1 cacheline). CUpdateFlushes
	// counts the asynchronous flushes actually issued.
	CFlushSkipHot
	CFlushSkipSmall
	CUpdateFlushes
	// CChunkFlushes counts compacted-flush XPLine chunk write-backs
	// (§III-C); CRecordFlushes counts individual record flushes.
	CChunkFlushes
	CRecordFlushes
	// CPipelineBatches counts pipelined batch executions (§III-D).
	CPipelineBatches
	// CQuarantines counts damaged segments dropped and rebuilt
	// (scrubber or fsck). The scrubber's own tallies are ScrubStats.
	CQuarantines
	// CReplShipSegments counts sealed-segment ranges shipped by a
	// replication primary (internal/repl); CReplApplySegments the
	// segment frames applied on the replica side.
	CReplShipSegments
	CReplApplySegments
	// Unreliable-transport hardening (internal/repl): CReplRetries
	// counts ship re-attempts after a transport timeout;
	// CReplApplyDupes counts duplicate frames the replica acked and
	// dropped; CReplSheds counts frames a replica refused over a full
	// pending log; CReplBreakerTrips counts circuit-breaker openings
	// on the primary; CReplSpills counts writes acknowledged with
	// their frame still owed to the peer (degraded-async mode);
	// CReplSpillSheds counts writes whose frame pushed an
	// unacknowledged one out of the full frame log; CReplResyncs
	// counts cursor handshakes; CReplReplays counts frames the peer
	// had acknowledged and a handshake re-shipped from the log;
	// CReplReseeds counts automated FullSync re-seeds.
	CReplRetries
	CReplApplyDupes
	CReplSheds
	CReplBreakerTrips
	CReplSpills
	CReplSpillSheds
	CReplResyncs
	CReplReplays
	CReplReseeds

	// Serving-layer counters (internal/server). CServeAccepts counts
	// accepted connections; CServeCmds counts commands executed, with
	// CServeCmdGet/Set/Del/Other breaking them out by verb family;
	// CServeBatches counts ExecBatch calls made on behalf of
	// connections (one per drained read burst); CServeErrors counts
	// error replies written (protocol and command errors alike).
	CServeAccepts
	CServeCmds
	CServeCmdGet
	CServeCmdSet
	CServeCmdDel
	CServeCmdOther
	CServeBatches
	CServeErrors

	numCounters
)

// CounterNames are the stable export names, indexed by Counter.
var CounterNames = [...]string{
	CSplits:          "splits",
	CSplitFallbacks:  "split_fallbacks",
	CMerges:          "merges",
	CDoubles:         "doubles",
	CCollabStages:    "collab_stages",
	CLockFallbacks:   "lock_fallbacks",
	CUpdateInPlace:   "update_inplace",
	CUpdateAppend:    "update_append",
	CFlushSkipHot:    "flush_skip_hot",
	CFlushSkipSmall:  "flush_skip_small",
	CUpdateFlushes:   "update_flushes",
	CChunkFlushes:    "chunk_flushes",
	CRecordFlushes:   "record_flushes",
	CPipelineBatches: "pipeline_batches",

	CQuarantines: "quarantines",

	CReplShipSegments:  "repl_ship_segments",
	CReplApplySegments: "repl_apply_segments",

	CReplRetries:      "repl_retries",
	CReplApplyDupes:   "repl_apply_dupes",
	CReplSheds:        "repl_sheds",
	CReplBreakerTrips: "repl_breaker_trips",
	CReplSpills:       "repl_spills",
	CReplSpillSheds:   "repl_spill_sheds",
	CReplResyncs:      "repl_resyncs",
	CReplReplays:      "repl_replays",
	CReplReseeds:      "repl_reseeds",
	CServeAccepts:     "serve_accepts",
	CServeCmds:        "serve_cmds",
	CServeCmdGet:      "serve_cmd_get",
	CServeCmdSet:      "serve_cmd_set",
	CServeCmdDel:      "serve_cmd_del",
	CServeCmdOther:    "serve_cmd_other",
	CServeBatches:     "serve_batches",
	CServeErrors:      "serve_errors",
}

// Gauge identifies one last-value metric: a level (not a rate) that a
// subsystem overwrites as its state changes. Gauges live on the
// registry (not striped) because their writers are rare.
type Gauge int

const (
	// GReplLagRecords / GReplLagBytes: how far a replica is behind the
	// primary — the frames and payload bytes of its pending log, per
	// owning shard (internal/repl).
	GReplLagRecords Gauge = iota
	GReplLagBytes
	// GScrubPasses: completed full passes of the online scrubber.
	GScrubPasses
	// GFsckUnrecoverable: segments the last Fsck could not repair.
	GFsckUnrecoverable
	// GReplBreakerState: the shipping circuit breaker's state on a
	// replication primary (0 closed, 1 half-open, 2 open; see
	// internal/repl). GReplSpillDepth: frames its log retains that the
	// peer has not acknowledged. GReplSpillLimit: that log's bound —
	// the depth at which the next write sheds; EvalHealth reads it for
	// the CRITICAL spill verdict.
	GReplBreakerState
	GReplSpillDepth
	GReplSpillLimit
	// GServeConns: currently open server connections.
	// GServeInflight: ops parsed but not yet replied to, summed over
	// connections — the live pipelining depth the backpressure window
	// bounds.
	GServeConns
	GServeInflight

	numGauges
)

// GaugeNames are the stable export names, indexed by Gauge.
var GaugeNames = [...]string{
	GReplLagRecords:    "repl_lag_records",
	GReplLagBytes:      "repl_lag_bytes",
	GScrubPasses:       "scrub_passes",
	GFsckUnrecoverable: "fsck_unrecoverable",
	GReplBreakerState:  "repl_breaker_state",
	GReplSpillDepth:    "repl_spill_depth",
	GReplSpillLimit:    "repl_spill_limit",
	GServeConns:        "serve_conns",
	GServeInflight:     "serve_inflight",
}

// Hist identifies one bounded-value histogram.
type Hist int

const (
	// HProbeLen is the per-lookup probe length: key slots examined by
	// locate before a hit or a proven miss (the every-overflow-entry-
	// has-a-hint invariant bounds it by one segment, §III-A).
	HProbeLen Hist = iota
	// HServeBatch is the op count of one server-side ExecBatch (the
	// size of a drained read burst, clamped at the backpressure
	// window). Values ≥ histBuckets land in the top bucket.
	HServeBatch

	numHists
)

// HistNames are the stable export names, indexed by Hist.
var HistNames = [...]string{
	HProbeLen:   "probe_len",
	HServeBatch: "serve_batch",
}

// histBuckets is the value range of a histogram: values are clamped to
// [0, histBuckets). Probe length is structurally bounded well below
// this (the 16-slot segment plus hint scan), so bucket index == exact
// value.
const histBuckets = 48

// lane is one stripe of the registry. The trailing pad keeps adjacent
// lanes from sharing the final cacheline.
type lane struct {
	counters [numCounters]atomic.Int64
	hists    [numHists][histBuckets]atomic.Int64
	// phases / oplat are the latency-attribution histograms fed by
	// completed spans (span.go): per-phase durations and end-to-end
	// op latency by kind, log2-bucketed virtual ns.
	phases [NumPhases][durBuckets]atomic.Int64
	oplat  [numSpanKinds][durBuckets]atomic.Int64
	_      [8]uint64
}

// Registry is the metrics registry. The zero value is not usable; a
// nil *Registry is the disabled registry (all methods no-ops).
type Registry struct {
	lanes  []lane
	mask   uint64
	next   atomic.Uint64
	ring   *Ring
	gauges [numGauges]atomic.Int64
	slow   slowLog
}

// NewRegistry returns an enabled registry sized for the current
// GOMAXPROCS, with the default trace-ring capacity.
func NewRegistry() *Registry {
	return NewRegistrySized(2*runtime.GOMAXPROCS(0), DefaultRingSize)
}

// NewRegistrySized returns a registry with at least lanes stripes
// (rounded up to a power of two) and a trace ring of ringSize events.
func NewRegistrySized(lanes, ringSize int) *Registry {
	n := 1
	for n < lanes {
		n <<= 1
	}
	return &Registry{
		lanes: make([]lane, n),
		mask:  uint64(n - 1),
		ring:  newRing(ringSize),
	}
}

// Lane is a worker's private stripe. Workers obtain one at start-up
// (Registry.Lane) and do all hot-path accounting through it; a nil
// *Lane is the disabled lane.
type Lane struct {
	l   *lane
	reg *Registry
}

// Lane hands out a stripe (round-robin). Nil-safe: a nil registry
// returns a nil (disabled) lane.
func (r *Registry) Lane() *Lane {
	if r == nil {
		return nil
	}
	return &Lane{l: &r.lanes[r.next.Add(1)&r.mask], reg: r}
}

// Inc adds 1 to counter c.
func (ln *Lane) Inc(c Counter) {
	if ln == nil {
		return
	}
	ln.l.counters[c].Add(1)
}

// Add adds d to counter c.
func (ln *Lane) Add(c Counter, d int64) {
	if ln == nil {
		return
	}
	ln.l.counters[c].Add(d)
}

// Observe records value v (clamped to the bucket range) in histogram h.
func (ln *Lane) Observe(h Hist, v int) {
	if ln == nil {
		return
	}
	if v < 0 {
		v = 0
	} else if v >= histBuckets {
		v = histBuckets - 1
	}
	ln.l.hists[h][v].Add(1)
}

// Inc adds 1 to counter c on a stripe derived from the counter id.
// For call sites without a per-worker lane (rare structural events).
func (r *Registry) Inc(c Counter) { r.Add(c, 1) }

// Add adds d to counter c on a stripe derived from the counter id.
func (r *Registry) Add(c Counter, d int64) {
	if r == nil {
		return
	}
	r.lanes[uint64(c)&r.mask].counters[c].Add(d)
}

// SetGauge overwrites gauge g with v. Nil-safe.
func (r *Registry) SetGauge(g Gauge, v int64) {
	if r == nil {
		return
	}
	r.gauges[g].Store(v)
}

// AddGauge adds d to gauge g. Nil-safe.
func (r *Registry) AddGauge(g Gauge, d int64) {
	if r == nil {
		return
	}
	r.gauges[g].Add(d)
}

// GaugeValue returns gauge g's current value. Nil-safe.
func (r *Registry) GaugeValue(g Gauge) int64 {
	if r == nil {
		return 0
	}
	return r.gauges[g].Load()
}

// Gauges returns the non-zero gauges keyed by export name. Nil-safe.
func (r *Registry) Gauges() map[string]int64 {
	m := make(map[string]int64, int(numGauges))
	if r == nil {
		return m
	}
	for g := Gauge(0); g < numGauges; g++ {
		if v := r.gauges[g].Load(); v != 0 {
			m[GaugeNames[g]] = v
		}
	}
	return m
}

// Counter sums counter c over every lane. Nil-safe: a nil registry
// reads 0.
func (r *Registry) Counter(c Counter) int64 {
	if r == nil {
		return 0
	}
	var t int64
	for i := range r.lanes {
		t += r.lanes[i].counters[c].Load()
	}
	return t
}

// Counters returns the non-zero counter totals keyed by export name.
// Nil-safe: a nil registry returns an empty map.
func (r *Registry) Counters() map[string]int64 {
	m := make(map[string]int64, int(numCounters))
	for c := Counter(0); c < numCounters; c++ {
		if t := r.Counter(c); t != 0 {
			m[CounterNames[c]] = t
		}
	}
	return m
}

// HistSnapshot sums histogram h across lanes. Nil-safe.
func (r *Registry) HistSnapshot(h Hist) HistSnapshot {
	s := HistSnapshot{Counts: make([]int64, histBuckets)}
	if r == nil {
		return s
	}
	for i := range r.lanes {
		for b := 0; b < histBuckets; b++ {
			s.Counts[b] += r.lanes[i].hists[h][b].Load()
		}
	}
	return s
}

// Trace appends a structural event to the trace ring. ts is the
// emitting worker's virtual clock (ns). Nil-safe.
func (r *Registry) Trace(kind EventKind, ts int64, a, b int64) {
	if r == nil {
		return
	}
	r.ring.add(kind, ts, a, b)
}

// TraceRing returns the registry's event ring (nil for a disabled
// registry).
func (r *Registry) TraceRing() *Ring {
	if r == nil {
		return nil
	}
	return r.ring
}
