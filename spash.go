// Package spash is a Go reproduction of Spash, the scalable persistent
// hash index for platforms with a persistent CPU cache (eADR) from
// "Exploiting Persistent CPU Cache for Scalable Persistent Hash Index"
// (ICDE 2024).
//
// Because Go exposes neither persistent memory, cacheline flush
// control, nor hardware transactional memory, the index runs on a
// simulated platform: a PM device with an XPLine-granular media model
// and a set-associative CPU cache (package internal/pmem), and an
// RTM-style software transactional memory (package internal/htm).
// The simulation reproduces the hardware behaviours the paper's design
// exploits — write amplification from random cacheline eviction,
// bandwidth savings from cache-absorbed hot writes, eADR crash
// semantics, HTM conflict/capacity aborts — and meters every PM access
// so the paper's evaluation can be regenerated (see EXPERIMENTS.md).
//
// # Sharding
//
// A DB is a router over N self-contained shards (Options.Shards; the
// default is GOMAXPROCS). Each shard owns a private simulated device,
// allocator, index, and HTM domain — no version clock, commit token,
// or allocator arena is shared — so cross-shard coordination cost is
// exactly zero, the property the paper's 224-thread scaling rests on.
// Keys route by the LOW bits of their 64-bit hash; each shard's
// extendible directory resolves with the HIGH bits, so the in-shard
// distribution stays uniform. Shards = 1 preserves the exact
// single-index behaviour of earlier versions.
//
// # Quick start
//
//	db, err := spash.Open(spash.Options{})
//	if err != nil { ... }
//	defer db.Close()
//
//	s := db.Session()        // one per worker goroutine
//	defer s.Close()
//	s.Insert([]byte("key"), []byte("value"))
//	val, ok, err := s.Get([]byte("key"), nil)
//
// # Crash recovery
//
// The simulated platform can lose power at any quiescent point:
//
//	imgs := db.Platforms()   // the simulated PM devices, one per shard
//	db.Crash()               // power failure (eADR: nothing is lost)
//	db2, err := spash.RecoverAll(imgs, spash.Options{})
//
// (With Shards: 1, spash.Recover reopens the single device,
// db.Platforms()[0].) Under the default eADR mode every completed
// operation survives; in ADR mode (Options.Platform.Mode = spash.ADR)
// unflushed data rolls back, demonstrating the gap the paper closes.
package spash

import (
	"errors"
	"fmt"
	"sync/atomic"

	"spash/internal/alloc"
	"spash/internal/core"
	"spash/internal/obs"
	"spash/internal/pmem"
	"spash/internal/shard"
	"spash/internal/vsync"
)

// Re-exported limits and policy types.
const (
	// MaxKVLen bounds key and value lengths.
	MaxKVLen = core.MaxKVLen
	// SegmentSize is the size of one fine-grained hash segment (one
	// XPLine, the PM media's internal access granularity).
	SegmentSize = core.SegmentSize
)

// Concurrency-control modes (Fig 12c variants).
const (
	ModeHTM       = core.ModeHTM
	ModeWriteLock = core.ModeWriteLock
	ModeRWLock    = core.ModeRWLock
)

// Update flush policies (Table I, Fig 12a variants).
const (
	UpdateAdaptive    = core.UpdateAdaptive
	UpdateAlwaysFlush = core.UpdateAlwaysFlush
	UpdateNeverFlush  = core.UpdateNeverFlush
	UpdateOracle      = core.UpdateOracle
)

// Insertion placement policies (§III-C, Fig 12b variants).
const (
	InsertCompactedFlush = core.InsertCompactedFlush
	InsertNoCompact      = core.InsertNoCompact
	InsertCompactNoFlush = core.InsertCompactNoFlush
)

// IndexOptions configures the index (alias of the core configuration
// so callers never import internal packages).
type IndexOptions = core.Config

// PlatformOptions configures the simulated PM device.
type PlatformOptions = pmem.Config

// Persistence-domain modes for PlatformOptions.Mode.
const (
	EADR = pmem.EADR
	ADR  = pmem.ADR
)

// DefaultPlatform returns the default simulated device configuration
// (256 MB pool, 8 MB cache, eADR).
func DefaultPlatform() PlatformOptions { return pmem.DefaultConfig() }

// Corruption-tolerance re-exports: typed errors the read path returns
// on damaged media and the repair report. Callers match with
// errors.Is/As and never import internal packages.
var (
	// ErrCorrupted matches (errors.Is) every CorruptionError.
	ErrCorrupted = core.ErrCorrupted
	// ErrPoisoned matches (errors.Is) reads of poisoned XPLines.
	ErrPoisoned = pmem.ErrPoisoned
	// ErrGeometry matches (errors.Is) every GeometryError returned by
	// Recover/RecoverAll when the requested Options.Index disagrees
	// with the geometry stamped on the device.
	ErrGeometry = core.ErrGeometry
	// ErrClosed is returned by Session operations (and reported in
	// batch results) after DB.Close.
	ErrClosed = errors.New("spash: database is closed")
	// ErrNoSpace matches (errors.Is) every write refused because its
	// shard's device has no room left: a full pool, or a directory at
	// its maximum depth. Nothing of the refused write is published;
	// reads and deletes keep working.
	ErrNoSpace = alloc.ErrNoSpace
)

type (
	// CorruptionError is the typed error returned when a read touches
	// a damaged segment (checksum mismatch, CRC-failing record, or
	// poisoned media). Extract with errors.As.
	CorruptionError = core.CorruptionError
	// GeometryError reports which on-device geometry parameter
	// (segment size, slots per segment, format, checksum mode)
	// conflicts with the recovering configuration. Extract with
	// errors.As.
	GeometryError = core.GeometryError
	// FsckReport is the result of Session.Fsck.
	FsckReport = core.FsckReport
)

// DescribeError renders err for operator-facing diagnostics: typed
// media corruption is expanded with the damaged location and the
// repair action; anything else formats as-is.
func DescribeError(err error) string {
	var ce *core.CorruptionError
	if errors.As(err, &ce) {
		loc := fmt.Sprintf("segment %#x", ce.Seg)
		if ce.Bucket >= 0 {
			loc = fmt.Sprintf("%s bucket %d", loc, ce.Bucket)
		}
		return fmt.Sprintf("media corruption in %s: %v (repair: spash-fsck -repair)", loc, ce.Cause)
	}
	if errors.Is(err, ErrNoSpace) {
		return fmt.Sprintf("%v (the shard's device is full: delete keys, or open a larger Platform.PoolSize; reads and deletes still work)", err)
	}
	var ae pmem.AccessError
	if errors.As(err, &ae) && ae.Poisoned {
		return fmt.Sprintf("uncorrectable media error: poisoned XPLine at %#x (repair: spash-fsck -repair)", ae.Addr)
	}
	var re *ReplicationError
	if errors.As(err, &re) {
		switch {
		case errors.Is(err, ErrNotPrimary):
			return fmt.Sprintf("%v (this node is a replica or was fenced by a newer epoch; retry against the current primary)", re)
		case errors.Is(err, ErrNeedsReseed):
			return fmt.Sprintf("%v (replica state rolled back past the replayable horizon; the primary's auto-resync re-seeds it via FullSync)", re)
		case errors.Is(err, ErrReplicaLag):
			return fmt.Sprintf("%v (drain the apply stream, then retry the promotion)", re)
		case errors.Is(err, ErrRetryExhausted):
			return fmt.Sprintf("%v (circuit breaker open, degraded-async shipping; writes continue locally and the prober drains the spill queue on recovery)", re)
		case errors.Is(err, ErrTransportTimeout):
			return fmt.Sprintf("%v (transport missed its per-frame deadline; the retry policy backs off and re-ships)", re)
		}
		return re.Error()
	}
	return err.Error()
}

// Options configures a DB.
type Options struct {
	// Platform configures the simulated PM device; the zero value is
	// pmem.DefaultConfig (256 MB pool, 8 MB cache, eADR). With more
	// than one shard the pool capacity is divided evenly among the
	// shards (same total data budget); each shard keeps a full-size
	// cache, modelling one socket per shard — every socket of the
	// paper's testbed brings its own LLC and DIMMs.
	Platform pmem.Config
	// Index configures the Spash index itself; the zero value matches
	// the paper's defaults (HTM concurrency, adaptive updates,
	// compacted-flush insertion, pipeline depth 4, 8K-entry hotspot
	// detector). Every shard runs the same configuration.
	Index core.Config
	// Shards is the number of independent partitions. 0 means
	// GOMAXPROCS; 1 preserves the exact single-index behaviour of
	// earlier versions.
	Shards int
	// Replica opens the DB in the replica role: client writes fail
	// typed with ErrNotPrimary (reads stay available) and only the
	// replication apply path (ApplierSession) may mutate it, until
	// Promote. See replication.go and internal/repl.
	Replica bool
}

// shardCount resolves the Shards option.
func (o Options) shardCount() int {
	if o.Shards == 0 {
		return shard.DefaultShards()
	}
	return o.Shards
}

// DB is a Spash index partitioned over Options.Shards self-contained
// shards, together with the simulated platforms they live on. All
// methods are safe for concurrent use; per-worker state lives in
// Sessions.
type DB struct {
	units  []*shard.Unit
	closed atomic.Bool
	// replica is the current replication role (replication.go): true
	// fences every non-applier Session write with ErrNotPrimary.
	replica atomic.Bool
}

// Open creates a fresh index on newly provisioned simulated PM
// devices, one per shard, in parallel.
func Open(opts Options) (*DB, error) {
	n := opts.shardCount()
	units, err := shard.OpenAll(n, opts.Platform, opts.Index)
	if err != nil {
		return nil, fmt.Errorf("spash: %w", err)
	}
	return newDB(units, opts), nil
}

func newDB(units []*shard.Unit, opts Options) *DB {
	db := &DB{units: units}
	db.replica.Store(opts.Replica)
	return db
}

// RecoverAll reopens an index on the existing devices of a crashed
// DB, one shard per device, recovered in parallel (first error in shard
// order wins). Each shard's volatile directory, allocator free lists
// and counters are rebuilt from persistent state. The slice must be in
// the original shard order — Platforms() returns it that way — because
// key routing depends on the position. Options.Shards is ignored; the
// device count is the shard count. Options.Index is validated against
// the geometry stamped on each device; a mismatch returns a
// GeometryError (errors.Is ErrGeometry).
func RecoverAll(platforms []*pmem.Pool, opts Options) (*DB, error) {
	units, err := shard.RecoverAll(platforms, opts.Index)
	if err != nil {
		if errors.Is(err, ErrGeometry) {
			return nil, fmt.Errorf("spash: %w", err)
		}
		return nil, fmt.Errorf("spash: recovering index: %w", err)
	}
	return newDB(units, opts), nil
}

// Shards returns the number of partitions.
func (db *DB) Shards() int { return len(db.units) }

// Platforms returns every shard's simulated PM device (for stats,
// crash injection and recovery), in shard order (the order RecoverAll
// requires).
func (db *DB) Platforms() []*pmem.Pool {
	out := make([]*pmem.Pool, len(db.units))
	for i, u := range db.units {
		out[i] = u.Pool
	}
	return out
}

// Indexes returns every shard's core index (advanced use: ablation
// toggles, maintenance operations), in shard order.
func (db *DB) Indexes() []*core.Index {
	out := make([]*core.Index, len(db.units))
	for i, u := range db.units {
		out[i] = u.Ix
	}
	return out
}

// Crash simulates a simultaneous power failure across every shard's
// device. With eADR (default) the persistent CPU cache is flushed by
// the reserve energy and nothing is lost; with ADR all unflushed
// cachelines roll back. The DB must be quiescent; after Crash the DB
// is unusable — call RecoverAll on Platforms(). Returns the total number of lost (rolled-back)
// cachelines across all shards; the per-shard breakdown is recorded
// in each device's stats (Stats().Shards[i].Memory.CrashLostLines,
// also visible as ObsSnapshots()[i].Mem.CrashLostLines), so failover
// drills can assert which shard rolled back.
func (db *DB) Crash() int {
	lost := 0
	for _, u := range db.units {
		lost += u.Pool.Crash()
	}
	return lost
}

// Close invalidates outstanding Sessions: any operation on them
// afterwards fails with ErrClosed. Close is idempotent; the simulated
// devices (and the data on them) remain available via Platforms().
func (db *DB) Close() { db.closed.Store(true) }

// Len returns the number of live key-value pairs across all shards.
func (db *DB) Len() int {
	n := 0
	for _, u := range db.units {
		n += u.Ix.Len()
	}
	return n
}

// LoadFactor returns entries / slot capacity — the memory-utilisation
// metric of the paper's Fig 9 — aggregated over all shards.
func (db *DB) LoadFactor() float64 {
	if len(db.units) == 1 {
		return db.units[0].Ix.LoadFactor()
	}
	var entries, segs int64
	for _, u := range db.units {
		st := u.Ix.Stats()
		entries += st.Entries
		segs += st.Segments
	}
	if segs == 0 {
		return 0
	}
	return float64(entries) / float64(segs*core.SlotsPerSegment)
}

// ShardStats is one shard's slice of the database counters.
type ShardStats struct {
	Index  core.Stats
	Memory pmem.Stats
}

// Stats bundles index counters with platform memory-event counters.
// Index and Memory are the database-wide aggregates; Shards carries
// the per-shard breakdown (length DB.Shards, in shard order).
type Stats struct {
	Index  core.Stats
	Memory pmem.Stats
	Shards []ShardStats
}

// Stats returns a snapshot of index and platform counters, aggregated
// and per shard.
func (db *DB) Stats() Stats {
	out := Stats{Shards: make([]ShardStats, len(db.units))}
	for i, u := range db.units {
		s := ShardStats{Index: u.Ix.Stats(), Memory: u.Pool.Stats()}
		out.Shards[i] = s
		out.Index = out.Index.Add(s.Index)
		out.Memory = out.Memory.Add(s.Memory)
	}
	return out
}

// ObsSnapshot captures the unified observability snapshot (pool memory
// events, HTM outcomes, allocator occupancy, structural counters)
// aggregated across every shard. Use ObsSnapshots for the per-shard
// breakdown.
func (db *DB) ObsSnapshot() obs.Snapshot {
	agg := db.units[0].Ix.ObsSnapshot()
	for _, u := range db.units[1:] {
		agg = agg.Add(u.Ix.ObsSnapshot())
	}
	return agg
}

// ObsSnapshots captures one observability snapshot per shard, in shard
// order.
func (db *DB) ObsSnapshots() []obs.Snapshot {
	out := make([]obs.Snapshot, len(db.units))
	for i, u := range db.units {
		out[i] = u.Ix.ObsSnapshot()
	}
	return out
}

// SlowOps returns the n slowest sampled operations retained across
// every shard's slow-op log, slowest first, each with its per-phase
// latency breakdown, op kind, key hash, shard and HTM abort count.
// n <= 0 returns everything retained. Empty when span sampling is
// disabled (core.Config.SpanSample < 0 or DisableObs).
func (db *DB) SlowOps(n int) []obs.SlowOp {
	lists := make([][]obs.SlowOp, 0, len(db.units))
	for _, u := range db.units {
		lists = append(lists, u.Ix.Obs().SlowOps(0))
	}
	return obs.MergeSlowOps(lists, n)
}

// Health evaluates the live aggregate snapshot against obs's fixed
// thresholds: quarantined segments, replication lag, HTM abort rate and
// fsck damage reduce to OK/DEGRADED/CRITICAL with reasons.
func (db *DB) Health() obs.Health {
	return obs.EvalHealth(db.ObsSnapshot())
}

// ExportSources bundles the DB's export feeds for obs.SetSources: the
// aggregate and per-shard snapshots and the merged slow-op log.
// Typically:
//
//	obs.SetSources(db.ExportSources())
//	obs.Serve(addr)
func (db *DB) ExportSources() obs.Sources {
	return obs.Sources{
		Snapshot: db.ObsSnapshot,
		Shards:   db.ObsSnapshots,
		SlowOps:  db.SlowOps,
	}
}

// Obs returns shard 0's metrics registry. Layers above the index
// (internal/server) record their own counters, gauges, and histograms
// here so they flow through the same snapshot aggregation and export
// feeds as the engine's.
func (db *DB) Obs() *obs.Registry {
	return db.units[0].Ix.Obs()
}

// Groups returns every shard's virtual-time serialisation group
// (benchmarking), in shard order. Each shard serialises independently;
// the harness bounds elapsed time by the hottest group.
func (db *DB) Groups() []*vsync.Group {
	out := make([]*vsync.Group, len(db.units))
	for i, u := range db.units {
		out[i] = u.Ix.Group()
	}
	return out
}

// TryShrink halves each shard's directory where every segment's local
// depth allows it (maintenance; see core.Index.TryShrink), reporting
// whether any shard shrank.
//
// Each shard gets a fresh context for the call: TryShrink runs on the
// caller's goroutine, and reusing the shard's bootstrap context here
// would share one virtual clock between concurrent callers (and with
// any maintenance still using it), corrupting the per-worker timing
// contract that pmem.Ctx enforces.
func (db *DB) TryShrink() bool {
	shrank := false
	for _, u := range db.units {
		c := u.Pool.NewCtx()
		if u.Ix.TryShrink(c) {
			shrank = true
		}
		c.Release()
	}
	return shrank
}

// Session is a per-worker handle: it owns the worker's virtual clock
// and, per shard, the allocator caches (including the compacted-flush
// chunk) and pipeline state. Sessions are not safe for concurrent use;
// create one per goroutine.
type Session struct {
	db *DB
	hs []*core.Handle
	// applier exempts the session from the replica write fence (see
	// DB.ApplierSession; replication apply only).
	applier bool
}

// Session returns a new worker session.
func (db *DB) Session() *Session {
	hs := make([]*core.Handle, len(db.units))
	for i, u := range db.units {
		hs[i] = u.Ix.NewHandle(nil)
	}
	return &Session{db: db, hs: hs}
}

// Close returns the session's cached resources to the DB.
func (s *Session) Close() {
	for _, h := range s.hs {
		h.Close()
	}
}

// ShardCtx returns the session's pmem context (virtual clock +
// counters) on shard i. A session's virtual time is the sum over its
// shards: one thread executes its operations serially, whichever shard
// they land on.
func (s *Session) ShardCtx(i int) *pmem.Ctx { return s.hs[i].Ctx() }

// shardOfKey returns the shard index owning key.
func shardOfKey(key []byte, n int) int {
	return shard.Of(core.KeyHash(key), n)
}

// ShardOf returns the shard a key routes to in an n-shard DB (the
// same low-bit hash routing Sessions use). Exported for the
// replication layer and harnesses that attribute keys to shards.
func ShardOf(key []byte, n int) int { return shardOfKey(key, n) }

// route returns the handle owning key.
func (s *Session) route(key []byte) *core.Handle {
	return s.hs[shardOfKey(key, len(s.hs))]
}

// Insert stores key→value, replacing any existing value. On a
// replica-role DB it fails with a *ReplicationError wrapping
// ErrNotPrimary.
func (s *Session) Insert(key, value []byte) error {
	if err := s.writeGate("insert", key); err != nil {
		return err
	}
	return s.route(key).Insert(key, value)
}

// Get looks key up; the value is appended to dst (which may be nil).
func (s *Session) Get(key, dst []byte) (value []byte, found bool, err error) {
	if s.db.closed.Load() {
		return nil, false, ErrClosed
	}
	return s.route(key).Search(key, dst)
}

// Update replaces the value of an existing key (adaptive in-place
// update). Returns false when the key is absent; on a replica-role DB
// it fails with a *ReplicationError wrapping ErrNotPrimary.
func (s *Session) Update(key, value []byte) (bool, error) {
	if err := s.writeGate("update", key); err != nil {
		return false, err
	}
	return s.route(key).Update(key, value)
}

// Delete removes key, reporting whether it was present. On a
// replica-role DB it fails with a *ReplicationError wrapping
// ErrNotPrimary.
func (s *Session) Delete(key []byte) (bool, error) {
	if err := s.writeGate("delete", key); err != nil {
		return false, err
	}
	return s.route(key).Delete(key)
}

// Batch types re-exported for pipelined execution (§III-D).
type (
	// Op is one request of a pipelined batch.
	Op = core.BatchOp
	// OpKind selects the operation of a batch request.
	OpKind = core.OpKind
)

// Batch operation kinds.
const (
	OpGet    = core.OpSearch
	OpUpdate = core.OpUpdate
	OpInsert = core.OpInsert
	OpDelete = core.OpDelete
)

// ExecBatch executes ops with pipelined PM reads: the preparation of
// request i+PipelineDepth-1 (directory lookup + asynchronous bucket
// prefetch) is issued before request i executes, overlapping PM read
// latencies. On a multi-shard DB the batch is partitioned by key and
// each shard's sub-batch runs through that shard's pipeline; results
// are positional, so callers are unaffected.
func (s *Session) ExecBatch(ops []Op) {
	if s.db.closed.Load() {
		for i := range ops {
			ops[i].Err = ErrClosed
		}
		return
	}
	if s.db.replica.Load() && !s.applier {
		// Replica role: the write requests fail typed, the reads of
		// the batch still execute (positionally, through a filtered
		// sub-batch).
		var reads []Op
		var idx []int
		for i := range ops {
			if ops[i].Kind == OpGet {
				reads = append(reads, ops[i])
				idx = append(idx, i)
				continue
			}
			ops[i].Err = &ReplicationError{Op: "batch write",
				Shard: shardOfKey(ops[i].Key, len(s.hs)),
				Epoch: s.db.Epoch(), Err: ErrNotPrimary}
		}
		if len(reads) > 0 {
			shard.SplitBatch(s.hs, reads)
			for j, i := range idx {
				ops[i] = reads[j]
			}
		}
		return
	}
	shard.SplitBatch(s.hs, ops)
}

// ForEach visits every live key-value pair once, shard by shard
// (segment-atomic, not a global snapshot; see core.Index.ForEach).
// The byte slices are only valid during the callback.
func (s *Session) ForEach(fn func(key, value []byte) bool) error {
	if s.db.closed.Load() {
		return ErrClosed
	}
	stopped := false
	for _, h := range s.hs {
		if stopped {
			break
		}
		err := h.Index().ForEach(h, func(k, v []byte) bool {
			if !fn(k, v) {
				stopped = true
				return false
			}
			return true
		})
		if err != nil {
			return err
		}
	}
	return nil
}

// Fsck walks each shard's persistent registry, verifies every live
// segment (checksum seals, per-record CRCs, routing, poison) and —
// with repair — quarantines and rebuilds the damaged ones, reporting
// salvaged and lost keys in one merged report. The DB should be
// quiescent; FsckReport.ExitCode gives the spash-fsck exit convention
// (0 clean / 1 repaired / 2 unrecoverable).
func (s *Session) Fsck(repair bool) (*FsckReport, error) {
	if s.db.closed.Load() {
		return nil, ErrClosed
	}
	var rep FsckReport
	for i, h := range s.hs {
		r, err := h.Fsck(repair)
		if err != nil {
			return nil, fmt.Errorf("shard %d: %w", i, err)
		}
		// Stamp the owning shard so replica read-repair can fetch
		// each repair's authoritative range from the right peer shard.
		for j := range r.Faults {
			r.Faults[j].Shard = i
		}
		for j := range r.Repairs {
			r.Repairs[j].Shard = i
		}
		for j := range r.Failed {
			r.Failed[j].Shard = i
		}
		rep.Merge(r)
	}
	return &rep, nil
}
