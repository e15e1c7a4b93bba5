package core

// ConcurrencyMode selects the concurrency-control protocol. The
// default HTM mode is the paper's contribution; the lock modes are the
// ablation variants of Fig 12(c), mirroring the protocols of Dash
// (lock-free reads, per-segment write locks) and Level hashing
// (per-segment locks for reads and writes).
type ConcurrencyMode int

const (
	// ModeHTM is the two-phase HTM protocol with fallback locks.
	ModeHTM ConcurrencyMode = iota
	// ModeWriteLock serialises writers on per-segment-group locks and
	// keeps reads lock-free (optimistic, seqlock-validated).
	ModeWriteLock
	// ModeRWLock takes per-segment-group read-write locks for both
	// reads and writes.
	ModeRWLock
)

func (m ConcurrencyMode) String() string {
	switch m {
	case ModeWriteLock:
		return "write-lock"
	case ModeRWLock:
		return "rw-lock"
	default:
		return "htm"
	}
}

// UpdatePolicy selects the flush strategy for updates (Table I and
// the Fig 12(a) ablations).
type UpdatePolicy int

const (
	// UpdateAdaptive is the paper's policy: no flush for hot entries
	// and for entries ≤ 64 B; an asynchronous flush for cold entries
	// larger than 64 B.
	UpdateAdaptive UpdatePolicy = iota
	// UpdateAlwaysFlush flushes after every update ("in-place update
	// w/ flush" in Fig 12a).
	UpdateAlwaysFlush
	// UpdateNeverFlush never flushes ("in-place update w/o flush").
	UpdateNeverFlush
	// UpdateOracle is UpdateAdaptive with hotness decided by the
	// workload-provided oracle instead of the hotspot detector.
	UpdateOracle
)

func (p UpdatePolicy) String() string {
	switch p {
	case UpdateAlwaysFlush:
		return "in-place w/ flush"
	case UpdateNeverFlush:
		return "in-place w/o flush"
	case UpdateOracle:
		return "adaptive (oracle)"
	default:
		return "adaptive"
	}
}

// InsertPolicy selects how small out-of-line records are placed and
// flushed (§III-C and the Fig 12(b) ablations).
type InsertPolicy int

const (
	// InsertCompactedFlush is the paper's policy: small records
	// (≤128 B) are bump-allocated from per-handle XPLine chunks and
	// each chunk is flushed once, when it fills.
	InsertCompactedFlush InsertPolicy = iota
	// InsertNoCompact models a conventional allocator: every small
	// record occupies its own XPLine-class block and is flushed
	// individually.
	InsertNoCompact
	// InsertCompactNoFlush compacts records into chunks but never
	// flushes them, leaving write-back to random cache eviction.
	InsertCompactNoFlush
)

func (p InsertPolicy) String() string {
	switch p {
	case InsertNoCompact:
		return "no-compaction"
	case InsertCompactNoFlush:
		return "compacted w/o flush"
	default:
		return "compacted-flush"
	}
}

// Config parameterises an index.
type Config struct {
	// InitialDepth is the initial directory depth (2^depth entries,
	// one fine-grained segment each).
	InitialDepth uint

	// Concurrency selects the protocol (default ModeHTM).
	Concurrency ConcurrencyMode

	// Update selects the update flush policy (default UpdateAdaptive).
	Update UpdatePolicy
	// Insert selects the insertion placement policy (default
	// InsertCompactedFlush).
	Insert InsertPolicy

	// PipelineDepth is the number of requests one worker executes in
	// a pipelined manner in batch operations (default 4, the paper's
	// recommended depth; 1 disables pipelining).
	PipelineDepth int

	// HotspotPartitionBits (p) and HotKeysPerPartition (q) size the
	// hotspot detector: 2^p partitions with q LRU keys each. The
	// defaults (12, 2) give the paper's 8K-entry hot-key list.
	HotspotPartitionBits int
	HotKeysPerPartition  int

	// OracleHot, used with UpdateOracle, reports whether a key hash
	// belongs to the workload's true hot set.
	OracleHot func(h uint64) bool

	// MaxTxRetries is the number of HTM conflict aborts tolerated for
	// one operation before taking the per-segment fallback lock.
	MaxTxRetries int

	// PersistBarrier (lock modes only) appends the classic ADR
	// persistence discipline to every write operation: flush the
	// modified bucket's cacheline and fence before returning. Together
	// with ModeWriteLock/ModeRWLock, UpdateAlwaysFlush and
	// InsertNoCompact this approximates how Spash would have to run on
	// a platform without a persistent CPU cache — the configuration
	// the paper's introduction argues against.
	PersistBarrier bool

	// MonolithicResize disables collaborative staged doubling: the
	// directory is doubled stop-the-world (concurrent operations wait
	// out the resize). Ablation knob contrasting the paper's §IV-B
	// design with the traditional approach it replaces.
	MonolithicResize bool

	// LockStripeBits sizes the lock table of the lock-based modes:
	// 2^bits per-segment-group locks.
	LockStripeBits uint

	// Checksums enables self-verifying layout maintenance: a
	// per-segment seal word (four per-bucket CRC32Cs) kept up to date on
	// every write path and validated on every operation, so media
	// corruption (bit rot, torn lines, poison) surfaces as a typed
	// *CorruptionError instead of a wrong answer. Off by default; the
	// write-path overhead is measured by the ext_integrity benchmark.
	// The setting is persistent: Recover adopts it from the pool.
	Checksums bool

	// SpanSample gates per-operation latency-attribution spans: one in
	// every SpanSample operations per worker is traced through the
	// route/probe/htm-retry/media-flush/publish phases and offered to
	// the slow-op log. 0 selects the default (32); negative disables
	// sampling entirely (the unsampled path is allocation-free either
	// way). Ignored when the registry is disabled.
	SpanSample int

	// DisableObs turns structural-event accounting off entirely: the
	// index runs with a nil registry and every instrumentation site
	// reduces to a nil check (the overhead baseline of
	// BenchmarkObsOverhead). Stats then reads 0 in every field but the
	// two levels and the TM's abort counts.
	DisableObs bool
}

// withDefaults fills zero fields.
func (c Config) withDefaults() Config {
	if c.InitialDepth == 0 {
		c.InitialDepth = 4
	}
	if c.PipelineDepth == 0 {
		c.PipelineDepth = 4
	}
	if c.HotspotPartitionBits == 0 {
		c.HotspotPartitionBits = 12
	}
	if c.HotKeysPerPartition == 0 {
		c.HotKeysPerPartition = 2
	}
	if c.HotKeysPerPartition > maxHotKeys {
		c.HotKeysPerPartition = maxHotKeys
	}
	if c.MaxTxRetries == 0 {
		c.MaxTxRetries = 8
	}
	if c.SpanSample == 0 {
		c.SpanSample = 32
	}
	if c.LockStripeBits == 0 {
		c.LockStripeBits = 8
	}
	if c.Concurrency != ModeHTM && c.InitialDepth < c.LockStripeBits {
		// Lock-based modes require every lock stripe to cover whole
		// segments (stripe = hash prefix), so the directory must be
		// at least as deep as the stripe table.
		c.InitialDepth = c.LockStripeBits
	}
	return c
}
