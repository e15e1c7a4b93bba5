package core

import (
	"errors"
	"fmt"
	"runtime"
	"sync/atomic"

	"spash/internal/alloc"
	"spash/internal/htm"
	"spash/internal/obs"
	"spash/internal/pmem"
	"spash/internal/vsync"
)

// Registry entry encoding (persistent, 8 bytes per pool XPLine):
//
//	[63 valid][55..48 local depth][47..0 hash prefix]
//
// The registry is the one deliberate extension over the paper's
// metadata-free design: base operations never touch it — only segment
// allocate/split/merge transactions update it — but it makes the
// volatile directory reconstructible after a crash (the paper does not
// specify its recovery path). One entry exists per XPLine of the pool,
// indexed by segment address.
const (
	regValid      = uint64(1) << 63
	regDepthShift = 48
)

func makeRegEntry(prefix uint64, depth uint) uint64 {
	return regValid | uint64(depth)<<regDepthShift | prefix&payload
}

func regPrefix(e uint64) uint64 { return e & payload }
func regDepth(e uint64) uint    { return uint(e >> regDepthShift & 0xFF) }

// Root-word layout inside the allocator's root area.
const (
	rootMagic    = 0
	rootRegistry = 1
	// rootSeal holds the base address of the per-segment seal table
	// when checksum maintenance (Config.Checksums) is enabled, 0
	// otherwise. The setting is thereby persistent: Recover adopts it
	// from this word regardless of the passed Config.
	rootSeal = 2
	// rootGeom stamps the layout geometry the image was built with
	// (geometry.go); Recover validates it before trusting anything
	// else on the device.
	rootGeom = 3
	// rootEpoch holds the replication promotion epoch (replication
	// protocol, internal/repl): stamped 1 at format time, advanced
	// durably by BumpEpoch when a replica is promoted to primary.
	// Pre-epoch images read 0, which compares below every stamped
	// epoch, so promotion fencing degrades safely.
	rootEpoch = 4
	// rootApplied holds a replica's durable applied-sequence cursor
	// (replication protocol, internal/repl): the highest frame
	// sequence whose apply is on the device, advanced by
	// SetAppliedSeq after each apply. Only shard 0 of a replica uses
	// it; on a primary (and on pre-cursor images) it reads 0.
	rootApplied = 5
	indexMagic  = 0x5350415348494458 // "SPASHIDX"
	maxDepth    = 44
)

// Stats are the index's operational counters (all cumulative).
// Entries and Segments are levels. Every other field is a view of the
// one site that counts its event: the TM for the abort counts, the obs
// registry for the rest, which therefore read 0 under
// Config.DisableObs.
type Stats struct {
	Entries  int64
	Segments int64
	Splits   int64
	Merges   int64
	Doubles  int64
	// TxConflicts/TxCapacity count HTM aborts by cause, over every
	// transaction the index's TM ran; Fallbacks counts operations and
	// splits that ended up on a fallback-lock path.
	TxConflicts int64
	TxCapacity  int64
	Fallbacks   int64
	// HotHits counts updates whose flush was skipped as hot.
	HotHits int64
	// CollabStages counts doubling stages completed by concurrent
	// operations rather than the doubling thread.
	CollabStages int64
}

// Index is a Spash instance over a simulated PM pool.
type Index struct {
	pool  *pmem.Pool
	alloc *alloc.Allocator
	tm    *htm.TM
	cfg   Config
	// group aggregates lock and HTM-commit serialisation for the
	// virtual-time model.
	group *vsync.Group
	// reg is the observability registry (nil when DisableObs): striped
	// structural-event counters, gauges and histograms.
	reg *obs.Registry
	// shardID identifies this index within a sharded DB (0 when
	// unsharded); stamped onto sampled spans for slow-op attribution.
	shardID atomic.Int32

	// dirGen is odd while a resize (staged or stop-the-world) is in
	// progress; every transaction reads it, and the HTM tracks conflicts
	// per cacheline, so it is padded to a line of its own: no other
	// transactional word can ever share (and falsely bump) its version.
	// dir is the current stable directory; doubling the in-progress
	// resize state.
	_          [7]uint64
	dirGen     uint64
	_          [7]uint64
	dir        atomic.Pointer[directory]
	doubling   atomic.Pointer[doublingState]
	resizeFlag atomic.Int32

	registryAddr uint64
	registryCap  uint64 // entries
	// sealAddr is the base of the per-segment seal table (one word per
	// pool XPLine, like the registry); 0 when checksums are off. Each
	// seal word packs the four per-bucket CRC32Cs of its segment
	// (integrity.go).
	sealAddr uint64

	hot *hotspot

	// stripes is the lock modes' per-stripe lock table; nil under HTM,
	// whose operations run exec's transaction instead. stripeBits is the
	// stripes' hash-prefix width (0 under HTM): no merge takes a
	// segment below it.
	stripes    stripeLocks
	stripeBits uint

	// lastResizeCost is the virtual duration of the most recent
	// stop-the-world resize; operations that waited it out charge it
	// to their clocks (blocked time is otherwise invisible to the
	// per-worker virtual-time model). resizeEpoch counts completed
	// stop-the-world resizes: every worker that lived through one
	// charges the expected overlap, since a stop-the-world resize
	// stalls the whole index regardless of who observes it in real
	// time.
	lastResizeCost atomic.Int64
	resizeEpoch    atomic.Int64

	// epoch mirrors the rootEpoch word (promotion fencing; see
	// Epoch/BumpEpoch); applied mirrors the rootApplied word (the
	// replica's durable applied-sequence cursor; see
	// AppliedSeq/SetAppliedSeq).
	epoch   atomic.Uint64
	applied atomic.Uint64

	// The levels below are written by operations on every worker —
	// entries by every insert and delete — and read only by Stats and
	// Len, so they sit a host line apart from the words above that every
	// operation reads, and from the heap object after this one (another
	// shard's Index, say).
	_       [7]uint64
	entries atomic.Int64
	// entriesApprox is set when a quarantine dropped an unreadable
	// (poisoned) segment: its pre-loss occupancy was undiscoverable, so
	// entries is an estimate until the next quiescent full scan
	// (CheckInvariants or Fsck) recomputes the truth.
	entriesApprox atomic.Bool

	segments atomic.Int64
	_        [8]uint64
}

// Open creates a new index on a freshly formatted pool.
func Open(c *pmem.Ctx, pool *pmem.Pool, al *alloc.Allocator, cfg Config) (*Index, error) {
	cfg = cfg.withDefaults()
	if pool.Load64(c, alloc.RootAddr(rootMagic)) != 0 {
		return nil, errors.New("core: pool already contains an index; use Recover")
	}
	ix := newIndex(pool, al, cfg)

	// The registry has one word per XPLine of the pool.
	ix.registryCap = pool.Size() / SegmentSize
	regAddr, err := al.AllocRaw(c, ix.registryCap*8)
	if err != nil {
		return nil, fmt.Errorf("core: allocating segment registry: %w", err)
	}
	ix.registryAddr = regAddr
	if cfg.Checksums {
		sa, err := al.AllocRaw(c, ix.registryCap*8)
		if err != nil {
			return nil, fmt.Errorf("core: allocating seal table: %w", err)
		}
		ix.sealAddr = sa
	}

	// Initial directory: one fresh segment per entry. The initial
	// structure is flushed so even an ADR-mode pool starts from a
	// durable skeleton.
	var zeroImg [SegmentSize / 8]uint64
	zeroSeal := sealOfImage(&zeroImg)
	d := newDirectory(cfg.InitialDepth)
	h := al.NewHandle()
	for i := range d.entries {
		seg, err := ix.newSegment(c, h)
		if err != nil {
			return nil, err
		}
		d.entries[i] = makeEntry(seg, cfg.InitialDepth)
		ix.regStoreRaw(c, seg, uint64(i), cfg.InitialDepth, true)
		pool.Flush(c, seg, SegmentSize)
		pool.Flush(c, ix.regAddrOf(seg), 8)
		if ix.sealAddr != 0 {
			pool.Store64(c, ix.sealAddrOf(seg), zeroSeal)
			pool.Flush(c, ix.sealAddrOf(seg), 8)
		}
		ix.segments.Add(1)
	}
	pool.Fence(c)
	h.Close()
	ix.dir.Store(d)

	pool.Store64(c, alloc.RootAddr(rootRegistry), regAddr)
	pool.Store64(c, alloc.RootAddr(rootSeal), ix.sealAddr)
	pool.Store64(c, alloc.RootAddr(rootGeom), geometryWord())
	pool.Store64(c, alloc.RootAddr(rootEpoch), 1)
	pool.Store64(c, alloc.RootAddr(rootApplied), 0)
	pool.Store64(c, alloc.RootAddr(rootMagic), indexMagic)
	pool.Flush(c, alloc.RootAddr(0), alloc.RootWords*8)
	pool.Fence(c)
	ix.epoch.Store(1)
	return ix, nil
}

func newIndex(pool *pmem.Pool, al *alloc.Allocator, cfg Config) *Index {
	ix := &Index{
		pool:  pool,
		alloc: al,
		cfg:   cfg,
		group: &vsync.Group{},
	}
	ix.tm = htm.New(htm.Config{})
	ix.tm.Group = ix.group
	if !cfg.DisableObs {
		ix.reg = obs.NewRegistry()
	}
	ix.hot = newHotspot(cfg.HotspotPartitionBits, cfg.HotKeysPerPartition)
	// The protocol is chosen here, once: the op path asks ix.stripes.
	n := 1 << cfg.LockStripeBits
	switch cfg.Concurrency {
	case ModeWriteLock:
		st := &seqStripes{mu: make([]vsync.Mutex, n), seqs: make([]atomic.Uint64, n)}
		for i := range st.mu {
			st.mu[i].G = ix.group
		}
		ix.stripes, ix.stripeBits = st, cfg.LockStripeBits
	case ModeRWLock:
		st := make(rwStripes, n)
		for i := range st {
			st[i].G = ix.group
		}
		ix.stripes, ix.stripeBits = st, cfg.LockStripeBits
	}
	return ix
}

// Config returns the effective configuration.
func (ix *Index) Config() Config { return ix.cfg }

// Pool returns the underlying simulated PM pool.
func (ix *Index) Pool() *pmem.Pool { return ix.pool }

// Group returns the serialisation group for the virtual-time model.
func (ix *Index) Group() *vsync.Group { return ix.group }

// Obs returns the observability registry (nil when disabled).
func (ix *Index) Obs() *obs.Registry { return ix.reg }

// SetShard stamps the index's shard id (spans carry it into the
// slow-op log). Called by the sharded DB at open/recover time.
func (ix *Index) SetShard(id int) { ix.shardID.Store(int32(id)) }

// Shard returns the stamped shard id (0 when unsharded).
func (ix *Index) Shard() int { return int(ix.shardID.Load()) }

// ObsSnapshot captures the unified observability snapshot: pool
// memory events, HTM outcomes, allocator occupancy and the registry's
// structural counters and histograms, in one diffable document.
func (ix *Index) ObsSnapshot() obs.Snapshot {
	return obs.Capture(ix.pool.Stats(), ix.tm.Stats(), ix.alloc.Stats(), ix.reg)
}

// newSegment allocates and zeroes one segment.
func (ix *Index) newSegment(c *pmem.Ctx, h *alloc.Handle) (uint64, error) {
	seg, _, err := h.Alloc(c, SegmentSize)
	if err != nil {
		return 0, err
	}
	for i := 0; i < SegmentSize/8; i++ {
		ix.pool.Store64(c, seg+uint64(i)*8, 0)
	}
	return seg, nil
}

// regAddrOf returns the registry word for a segment address.
func (ix *Index) regAddrOf(seg uint64) uint64 {
	return ix.registryAddr + seg/SegmentSize*8
}

// sealAddrOf returns the seal word for a segment address. Only valid
// when sealAddr != 0 (checksums on).
func (ix *Index) sealAddrOf(seg uint64) uint64 {
	return ix.sealAddr + seg/SegmentSize*8
}

// SegmentAddrs returns the PM address of every live segment, read from
// the persistent registry in frame order (unreadable registry words are
// skipped). The index must be quiescent. Used by fault-injection
// harnesses (to aim media damage at index frames) and tests.
func (ix *Index) SegmentAddrs(c *pmem.Ctx) (out []uint64) {
	ix.eachRegistered(c, func(seg, _ uint64, _ uint, poisoned bool) bool {
		if !poisoned {
			out = append(out, seg)
		}
		return true
	})
	return out
}

// regStoreRaw writes a registry entry outside any transaction (index
// construction only).
func (ix *Index) regStoreRaw(c *pmem.Ctx, seg, prefix uint64, depth uint, valid bool) {
	var e uint64
	if valid {
		e = makeRegEntry(prefix, depth)
	}
	ix.pool.Store64(c, ix.regAddrOf(seg), e)
}

// Len returns the number of live key-value entries.
func (ix *Index) Len() int { return int(ix.entries.Load()) }

// LoadFactor returns entries / capacity, the memory-utilisation metric
// of Fig 9.
func (ix *Index) LoadFactor() float64 {
	segs := ix.segments.Load()
	if segs == 0 {
		return 0
	}
	return float64(ix.entries.Load()) / float64(segs*SlotsPerSegment)
}

// Depth returns the current global directory depth.
func (ix *Index) Depth() uint { return ix.dir.Load().depth }

// Epoch returns the promotion epoch stamped on the device: 1 on a
// freshly formatted pool, advanced by BumpEpoch at every promotion,
// 0 on images formatted before the epoch word existed.
func (ix *Index) Epoch() uint64 { return ix.epoch.Load() }

// BumpEpoch durably advances the promotion epoch and returns the new
// value. Replication frames are stamped with the shipping primary's
// epoch; a replica promoted to primary bumps its epoch first, so any
// frame a deposed primary still ships afterwards carries a stale
// epoch and is rejected (split-brain fencing). The index must be
// quiescent: promotion runs right after recovery, before any worker
// session exists.
//
//spash:guarded promotion mutates one root word on a quiescent, freshly recovered index; no concurrent HTM domain activity exists
func (ix *Index) BumpEpoch(c *pmem.Ctx) uint64 {
	e := ix.epoch.Load() + 1
	ix.pool.Store64(c, alloc.RootAddr(rootEpoch), e)
	ix.pool.Flush(c, alloc.RootAddr(rootEpoch), 8)
	ix.pool.Fence(c)
	ix.epoch.Store(e)
	return e
}

// AppliedSeq returns the durable applied-sequence cursor stamped on
// the device: 0 on a fresh pool (and on a primary), advanced by
// SetAppliedSeq after every replication apply. Recover reloads it, so
// a rejoined replica knows exactly which frames its image holds.
func (ix *Index) AppliedSeq() uint64 { return ix.applied.Load() }

// SetAppliedSeq durably records that every replication frame up to
// and including seq has been applied. The replica calls it after each
// apply completes (the apply itself is failure-atomic through the
// ordinary operation paths); flush+fence ordering means the cursor
// never runs ahead of visibility — under ADR a crash can roll back
// applies the cursor already covers, which the rejoin path detects
// via the device's lost-line count and reports as a reseed condition.
//
//spash:guarded the applied-cursor word is owned by the single replication applier under the replica mutex; no concurrent HTM domain activity touches it
func (ix *Index) SetAppliedSeq(c *pmem.Ctx, seq uint64) {
	ix.pool.Store64(c, alloc.RootAddr(rootApplied), seq)
	ix.pool.Flush(c, alloc.RootAddr(rootApplied), 8)
	ix.pool.Fence(c)
	ix.applied.Store(seq)
}

// Stats returns the operational counters: the two levels, the
// registry's event counters and the TM's abort counts.
func (ix *Index) Stats() Stats {
	r, tm := ix.reg, ix.tm.Stats()
	return Stats{
		Entries:      ix.entries.Load(),
		Segments:     ix.segments.Load(),
		Splits:       r.Counter(obs.CSplits),
		Merges:       r.Counter(obs.CMerges),
		Doubles:      r.Counter(obs.CDoubles),
		TxConflicts:  tm.Conflicts,
		TxCapacity:   tm.Capacities,
		Fallbacks:    r.Counter(obs.CLockFallbacks) + r.Counter(obs.CSplitFallbacks),
		HotHits:      r.Counter(obs.CFlushSkipHot),
		CollabStages: r.Counter(obs.CCollabStages),
	}
}

// Add returns s + o counter-wise, aggregating the stats of sharded
// indexes into one database-level view.
func (s Stats) Add(o Stats) Stats {
	return Stats{
		Entries:      s.Entries + o.Entries,
		Segments:     s.Segments + o.Segments,
		Splits:       s.Splits + o.Splits,
		Merges:       s.Merges + o.Merges,
		Doubles:      s.Doubles + o.Doubles,
		TxConflicts:  s.TxConflicts + o.TxConflicts,
		TxCapacity:   s.TxCapacity + o.TxCapacity,
		Fallbacks:    s.Fallbacks + o.Fallbacks,
		HotHits:      s.HotHits + o.HotHits,
		CollabStages: s.CollabStages + o.CollabStages,
	}
}

// waitResize spins until the in-progress resize completes.
func (ix *Index) waitResize() {
	for atomic.LoadUint64(&ix.dirGen)&1 != 0 {
		// The resizer may have unwound at an injected power cut with
		// the generation bit still odd; die with it instead of
		// spinning on a resize that will never finish.
		ix.pool.CheckLive()
		runtime.Gosched()
	}
}

// waitResizeCtx is waitResize for a worker with a clock: if a resize
// was actually in progress, the worker charges its virtual duration —
// the blocking that stop-the-world resizing inflicts and collaborative
// staged doubling avoids.
func (ix *Index) waitResizeCtx(c *pmem.Ctx) {
	if atomic.LoadUint64(&ix.dirGen)&1 == 0 {
		return
	}
	ix.waitResize()
	c.Charge(ix.lastResizeCost.Load())
}

// waitUnlocked yields, charging no clock, until the segment covering h
// is no longer fallback-locked, so a transaction that found the lock
// held pays for that one attempt and its retry. How many attempts would
// fit in the wait depends on how the host schedules the holder, not on
// the index; like a blocked vsync waiter, the waiter pays nothing for
// the holder's critical section. During a stop-the-world resize it
// returns and the caller's retry meets the resize.
func (ix *Index) waitUnlocked(h uint64) {
	for {
		ix.pool.CheckLive()
		runtime.Gosched()
		if _, ce, _, ok := ix.resolveCanonicalNoWait(h); !ok || !entryLocked(ce) {
			return
		}
	}
}

// resolveTx resolves the authoritative directory entry inside a
// transaction (the transaction-phase validation of §IV-A): the
// generation word, the partition-progress words (during doubling), the
// entry itself AND the segment's canonical lock entry all join the
// read set, so any concurrent split, doubling stage, or fallback-lock
// acquisition aborts this transaction. Returns errLocked if the
// segment's fallback lock is held, errResizing during a stop-the-world
// resize.
//
// The per-segment fallback lock lives on the canonical covering entry
// — the first directory entry of the segment's covering range. A
// segment whose local depth is below the global depth is covered by
// many entries; locking only the operation's own entry would let
// transactions arriving through sibling entries run concurrently with
// the raw fallback body and break the segment's multi-word invariants
// (e.g. the hint words shared by all keys of a bucket).
func (ix *Index) resolveTx(tx *htm.Txn, h uint64) (ptr *uint64, entry uint64, err error) {
	gen := tx.LoadVol(&ix.dirGen)
	if gen&1 == 0 {
		d := ix.dir.Load()
		idx := d.index(h)
		ptr = &d.entries[idx]
		entry = tx.LoadVol(ptr)
		if entryLocked(entry) {
			return nil, 0, errLocked
		}
		if depth := entryDepth(entry); depth < d.depth {
			base := idx &^ (uint64(1)<<(d.depth-depth) - 1)
			if base != idx && entryLocked(tx.LoadVol(&d.entries[base])) {
				return nil, 0, errLocked
			}
		}
		return ptr, entry, nil
	}
	ds := ix.doubling.Load()
	if ds == nil || ds.stopWorld {
		return nil, 0, errResizing
	}
	oldIdx := ds.old.index(h)
	if tx.LoadVol(ds.partDonePtr(ds.partOf(oldIdx))) == 1 {
		ptr = &ds.new.entries[ds.new.index(h)]
	} else {
		ptr = &ds.old.entries[oldIdx]
	}
	entry = tx.LoadVol(ptr)
	if entryLocked(entry) {
		return nil, 0, errLocked
	}
	if cPtr := ix.canonicalPtrTx(tx, ds, oldIdx, entryDepth(entry)); cPtr != ptr &&
		cPtr != nil && entryLocked(tx.LoadVol(cPtr)) {
		return nil, 0, errLocked
	}
	return ptr, entry, nil
}

// canonicalPtrTx locates, inside a transaction during a doubling, the
// canonical lock entry for a segment of the given local depth whose
// keys map to oldIdx in the old directory. The canonical partition's
// progress word joins the read set.
func (ix *Index) canonicalPtrTx(tx *htm.Txn, ds *doublingState, oldIdx uint64, depth uint) *uint64 {
	if depth > ds.old.depth {
		// The segment was created during this doubling; its covering
		// range in the new directory starts at its own (single) entry.
		return nil
	}
	cOld := oldIdx &^ (uint64(1)<<(ds.old.depth-depth) - 1)
	if tx.LoadVol(ds.partDonePtr(ds.partOf(cOld))) == 1 {
		return &ds.new.entries[cOld<<1]
	}
	return &ds.old.entries[cOld]
}
