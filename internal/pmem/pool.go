package pmem

import (
	"encoding/binary"
	"fmt"
	"sync"
	"sync/atomic"
	"unsafe"

	"spash/internal/hostpf"
)

// Pool is a simulated persistent-memory device fronted by a simulated
// CPU cache. Addresses are byte offsets into the pool; address 0 is
// reserved as the nil pointer and 64-bit accesses must be 8-byte
// aligned (the backing store is word-granular and word accesses are
// atomic, like real hardware).
type Pool struct {
	cfg Config
	// words is the device's content; mem owns the storage behind it
	// (storage_linux.go). No pointer or slice into words may outlive the
	// caller's reference to the Pool.
	words []uint64
	mem   *mapping
	cache *cache
	xpb   *xpbuffer

	mu      sync.Mutex
	ctxs    map[*Ctx]struct{}
	retired Stats
	// injected accumulates the media-fault counters of applied
	// MediaFaultPlans (guarded by mu).
	injected Stats

	// fault is the armed crash-injection plan (fault.go). Which contexts
	// have an operation or a failure-atomic section open is each
	// context's own word (Ctx.inOp, Ctx.inAtomic), counted over ctxs
	// under mu: no per-operation write lands on the pool.
	fault atomic.Pointer[FaultPlan]
	// crashes counts power failures; a context's line memo (Ctx.memo) is
	// only believed while it carries the current count.
	crashes atomic.Uint64

	// media is the armed media-fault plan (media.go); poison is the
	// set of poisoned XPLine bases, with poisonN as its lock-free
	// emptiness check on the read fast path.
	media    atomic.Pointer[MediaFaultPlan]
	poisonMu sync.Mutex
	poison   map[uint64]struct{}
	poisonN  atomic.Int64
}

// New creates a simulated PM pool. The pool's content starts zeroed
// (as after an initial provisioning of the DIMMs).
func New(cfg Config) *Pool {
	cfg = cfg.withDefaults()
	validateCache(cfg)
	p := &Pool{
		cfg:  cfg,
		ctxs: make(map[*Ctx]struct{}),
	}
	p.words, p.mem = newStorage(cfg.PoolSize)
	p.cache = newCache(cfg)
	p.xpb = newXPBuffer(cfg.XPBufferLines)
	return p
}

// Config returns the pool's configuration (with defaults applied).
func (p *Pool) Config() Config { return p.cfg }

// Size returns the pool capacity in bytes.
func (p *Pool) Size() uint64 { return p.cfg.PoolSize }

// NewCtx returns a fresh per-worker context.
func (p *Pool) NewCtx() *Ctx {
	c := &Ctx{pool: p}
	p.mu.Lock()
	p.ctxs[c] = struct{}{}
	p.mu.Unlock()
	return c
}

func (p *Pool) retire(c *Ctx) {
	p.mu.Lock()
	p.retired = p.retired.Add(c.stats)
	delete(p.ctxs, c)
	p.mu.Unlock()
}

// Stats returns the pool-wide event totals: the retired contexts'
// counters plus those of every live context. Live contexts must be
// quiescent while Stats is called for an exact snapshot.
func (p *Pool) Stats() Stats {
	p.mu.Lock()
	s := p.retired.Add(p.injected)
	for c := range p.ctxs {
		s = s.Add(c.stats)
	}
	p.mu.Unlock()
	return s
}

// MaxClock returns the largest virtual clock over all live contexts.
func (p *Pool) MaxClock() int64 {
	p.mu.Lock()
	var m int64
	for c := range p.ctxs {
		if c.clock > m {
			m = c.clock
		}
	}
	p.mu.Unlock()
	return m
}

// ResetClocks zeroes all live context clocks (phase boundary).
func (p *Pool) ResetClocks() {
	p.mu.Lock()
	for c := range p.ctxs {
		c.clock = 0
	}
	p.mu.Unlock()
}

func (p *Pool) check(addr, size uint64) {
	if addr+size > p.cfg.PoolSize || addr+size < addr {
		panic(AccessError{Addr: addr, Size: size, PoolSize: p.cfg.PoolSize})
	}
}

func (p *Pool) checkAligned(addr uint64) {
	if addr&7 != 0 {
		panic(AccessError{Addr: addr, Misaligned: true})
	}
	p.check(addr, 8)
}

// lookup runs one line access through cache set si — the one door into
// cache.access — and leaves the line's memo entry behind, flagged when
// the access leaves the line dirty. The crash count is read before the
// set is entered, so a power cut racing the access leaves a memo that is
// already stale, never one that outlives the emptied cache; a count that
// moved empties the table, and so does every entry made outside an
// operation, where no BeginOp bounds how long a neighbour could make the
// others wrong.
func (p *Pool) lookup(c *Ctx, line, si uint64, store bool) (hit bool) {
	if n := p.crashes.Load(); n != c.memoCrashes || c.opDepth == 0 {
		c.memoClear()
		c.memoCrashes = n
	}
	c.setEntries++
	hit, dirty := p.cache.access(p, c, line, si, store)
	e := line | memoValid
	if dirty {
		e |= memoDirty
	}
	c.memoLast = si & (memoSlots - 1)
	c.memo[c.memoLast] = e
	c.memoUsed[c.memoLast/64] |= 1 << (c.memoLast % 64)
	return hit
}

// touch performs the cache-model bookkeeping for one line access and
// charges the context's virtual clock, consuming a pending prefetch of
// the line if one exists.
//
// An access to a line with a memo entry (Ctx.memo) is a hit that would
// leave the set exactly as it is, and is charged without taking the set
// lock: the line's way already holds rank 0 of the set's LRU order, so a
// load has nothing to do there but consume the line's pending prefetch;
// and when the entry is memoDirty the way is dirty and its ADR snapshot
// taken, so neither has a store. A prefetched line is one of these: the
// prefetch's own pass left the entry, and its load is the prefetched hit
// without entering the set again. A pass through any set of the slot
// replaces the entry, the context's own Flush (which cleans the line:
// the next store must re-snapshot and re-dirty it) clears memoDirty, its
// NTStore drops the entry, and any Crash or the next outermost BeginOp
// empties the table. For a context alone on its pool that is the same
// accounting as entering the set. With several contexts a neighbour may
// have evicted or flushed a memoed line since: the next miss absorbs the
// eviction, and a store that misses its dirty mark reaches media early,
// which under ADR an eviction may make any store do — for at most the
// rest of one operation.
func (p *Pool) touch(c *Ctx, line uint64, store bool) {
	// The slot of the previous access is tried before the line is
	// hashed: a run of accesses to one line costs one compare each. (The
	// mask only tells the compiler memoLast is in range.)
	const unhashed = ^uint64(0)
	want := line | memoValid
	si, e := unhashed, c.memo[c.memoLast&(memoSlots-1)]
	if e&^memoDirty != want {
		si = p.cache.setIndex(line)
		c.memoLast = si & (memoSlots - 1)
		e = c.memo[c.memoLast]
	}
	if e&^memoDirty == want && c.memoCrashes == p.crashes.Load() {
		switch {
		case !store:
			if c.pf.mayHold(line) {
				if done, ok := c.pf.take(line); ok && done > c.clock {
					c.clock = done // as a prefetched hit in the set would wait
				}
			}
			c.clock += hitLoadNS
			c.stats.CacheHits++
			return
		case e&memoDirty != 0:
			c.clock += hitStoreNS
			c.stats.CacheHits++
			return
		}
	}
	if si == unhashed {
		si = p.cache.setIndex(line)
	}
	done, prefetched := int64(0), false
	if !store && c.pf.mayHold(line) {
		done, prefetched = c.pf.take(line)
	}
	hit := p.lookup(c, line, si, store)
	switch {
	case prefetched && hit:
		// Data arrives at the prefetch completion time; the load
		// itself only pays a cache-hit access.
		if done > c.clock {
			c.clock = done
		}
		c.clock += hitLoadNS
		c.stats.CacheHits++
	case hit:
		if store {
			c.clock += hitStoreNS
		} else {
			c.clock += hitLoadNS
		}
		c.stats.CacheHits++
	default:
		if store {
			c.clock += missStoreNS
		} else {
			c.clock += missLoadNS
		}
		c.stats.CacheMisses++
	}
}

// Load64 atomically loads the 64-bit word at addr. Reading a poisoned
// XPLine panics with a typed AccessError (the simulated machine
// check); see media.go.
//
// The word is read before the cache bookkeeping: the value does not
// depend on it, and issued first the host's miss on the word overlaps
// the miss on the set instead of waiting behind the set lock. Stores
// cannot be reordered the same way: the set must snapshot the line's
// pre-store image (ADR) before the word changes.
func (p *Pool) Load64(c *Ctx, addr uint64) uint64 {
	p.checkAligned(addr)
	p.checkPoison(c, addr, 8)
	v := atomic.LoadUint64(&p.words[addr/8])
	p.touch(c, addr&^uint64(CachelineSize-1), false)
	return v
}

// Line is the content of one cacheline, word by word.
type Line = [CachelineSize / 8]uint64

// LoadLine atomically loads each word of the cacheline holding addr, in
// address order, as one cache access: the scan of a bucket that is a
// line, as a core compares the words of a line it has loaded. Bounds and
// poison are checked once for the line; a poisoned XPLine machine-checks
// as Load64 does, and a line outside the pool panics with the same
// AccessError.
//
// The host fetch of the words is started before the cache bookkeeping
// and the words are read after it. Read first, as Load64 reads its word,
// they would be stored into the result before the set lock is taken, and
// the lock's atomic instruction waits for every earlier store: the
// word's host miss and the set's would run one after the other instead
// of overlapping.
func (p *Pool) LoadLine(c *Ctx, addr uint64) (l Line) {
	line := addr &^ uint64(CachelineSize-1)
	p.check(line, CachelineSize)
	p.checkPoison(c, line, CachelineSize)
	w := p.words[line/8 : line/8+uint64(len(l))]
	hostpf.Line(unsafe.Pointer(&w[0]))
	p.touch(c, line, false)
	for i := range l {
		l[i] = atomic.LoadUint64(&w[i])
	}
	return l
}

// Store64 atomically stores v to the 64-bit word at addr. The line
// becomes dirty in the simulated cache; under eADR it is already
// durable, under ADR it is durable only once flushed or evicted.
// Storing into a poisoned XPLine clears its poison (write-to-heal).
func (p *Pool) Store64(c *Ctx, addr uint64, v uint64) {
	p.checkAligned(addr)
	p.clearPoison(addr, 8)
	p.step(c)
	p.touch(c, addr&^uint64(CachelineSize-1), true)
	atomic.StoreUint64(&p.words[addr/8], v)
}

// Word is one 64-bit store of a StoreLine run: Val goes to Addr.
type Word struct{ Addr, Val uint64 }

// StoreLine stores a run of words that share one cacheline, in order,
// exactly as a Store64 of each would — alignment check, poison clearing
// and crash step per word, atomic store per word — except that the line
// is touched once, before the first store: the run is one cache access,
// as a line retired from a store buffer or a transaction's write set is.
// The line is dirtied (and under ADR its pre-store image snapshotted)
// by that access, so the later stores would only have hit it again;
// what the run saves is those hits. It panics when a word lies outside
// the first word's line.
func (p *Pool) StoreLine(c *Ctx, words []Word) {
	if len(words) == 0 {
		return
	}
	line := words[0].Addr &^ uint64(CachelineSize-1)
	for i, w := range words {
		p.checkAligned(w.Addr)
		if w.Addr&^uint64(CachelineSize-1) != line {
			panic(fmt.Sprintf("pmem: StoreLine word %#x outside line %#x", w.Addr, line))
		}
		p.clearPoison(w.Addr, 8)
		p.step(c)
		if i == 0 {
			p.touch(c, line, true)
		}
		atomic.StoreUint64(&p.words[w.Addr/8], w.Val)
	}
}

// CAS64 performs a compare-and-swap on the word at addr. The embedded
// read machine-checks on a poisoned XPLine like Load64.
func (p *Pool) CAS64(c *Ctx, addr uint64, old, new uint64) bool {
	p.checkAligned(addr)
	p.checkPoison(c, addr, 8)
	p.step(c)
	p.touch(c, addr&^uint64(CachelineSize-1), true)
	return atomic.CompareAndSwapUint64(&p.words[addr/8], old, new)
}

// touchRange touches every cacheline overlapped by [addr, addr+n).
func (p *Pool) touchRange(c *Ctx, addr, n uint64, store bool) {
	if n == 0 {
		return
	}
	first := addr &^ uint64(CachelineSize-1)
	last := (addr + n - 1) &^ uint64(CachelineSize-1)
	for line := first; line <= last; line += CachelineSize {
		p.touch(c, line, store)
	}
}

// Read copies len(dst) bytes starting at addr into dst, simulating the
// cache traffic of the reads.
func (p *Pool) Read(c *Ctx, addr uint64, dst []byte) {
	n := uint64(len(dst))
	p.check(addr, n)
	p.checkPoison(c, addr, n)
	p.touchRange(c, addr, n, false)
	p.copyOut(addr, dst)
}

// Write copies src into the pool at addr, simulating the cache traffic
// of the stores (write-allocate). Partial words at the edges are
// merged read-modify-write; concurrent writers of the same word must
// be synchronised by the caller, as on real hardware with non-atomic
// multi-byte stores.
func (p *Pool) Write(c *Ctx, addr uint64, src []byte) {
	n := uint64(len(src))
	p.check(addr, n)
	p.clearPoison(addr, n)
	p.step(c)
	p.touchRange(c, addr, n, true)
	p.copyIn(addr, src)
}

// NTStore writes src to addr with non-temporal semantics: the data
// bypasses the CPU cache and is immediately durable in media. Resident
// lines in the written range are invalidated. Incompatible with HTM
// transactions, as on real hardware.
func (p *Pool) NTStore(c *Ctx, addr uint64, src []byte) {
	n := uint64(len(src))
	p.check(addr, n)
	if n == 0 {
		return
	}
	p.clearPoison(addr, n)
	p.step(c)
	first := addr &^ uint64(CachelineSize-1)
	last := (addr + n - 1) &^ uint64(CachelineSize-1)
	for line := first; line <= last; line += CachelineSize {
		si := p.cache.setIndex(line)
		if e := c.memoSlot(line, si); e != nil {
			*e = 0 // the line is gone from the cache
		}
		p.cache.invalidateLine(line, si)
		c.stats.CachelineWrites++
		c.stats.NTStores++
		p.xpb.write(c, line)
		c.clock += ntStoreLineNS
	}
	p.copyIn(addr, src)
}

// Flush issues clwb for every cacheline overlapping [addr, addr+size):
// dirty lines are written back to media and stay resident clean. The
// write-back is asynchronous; call Fence to order it (and pay the
// drain cost).
func (p *Pool) Flush(c *Ctx, addr, size uint64) {
	if size == 0 {
		return
	}
	p.check(addr, size)
	p.step(c)
	first := addr &^ uint64(CachelineSize-1)
	last := (addr + size - 1) &^ uint64(CachelineSize-1)
	for line := first; line <= last; line += CachelineSize {
		c.stats.Flushes++
		c.clock += flushIssueNS
		si := p.cache.setIndex(line)
		if e := c.memoSlot(line, si); e != nil {
			*e &^= memoDirty // clean again: the next store must enter the set
		}
		p.cache.flushLine(p, c, line, si)
		c.pendingFlushes++
	}
}

// Fence is a persistence barrier (sfence): it drains outstanding
// flushes issued through this context.
func (p *Pool) Fence(c *Ctx) {
	p.step(c)
	c.stats.Fences++
	if c.pendingFlushes > 0 {
		c.clock += fenceDrainNS
		c.pendingFlushes = 0
	} else {
		c.clock += fenceIdleNS
	}
}

// Prefetch starts an asynchronous load of the cacheline containing
// addr. The line is installed in the cache; the data becomes usable at
// the completion time recorded in the context, so a later Load of the
// same line only waits out the residual latency. This is the mechanism
// behind the paper's pipelined execution (§III-D).
//
// The line enters its set here, once: the pass leaves a line memo entry
// like any other, and a load that still finds it is charged the
// prefetched hit without entering the set again (Pool.touch).
//
// A context keeps at most maxPrefetch loads in flight. A full table
// drops one whose data has arrived; when every one is still in flight
// the prefetch is not issued: it charges and moves nothing and reports
// false, and the line's own load later misses in full.
func (p *Pool) Prefetch(c *Ctx, addr uint64) bool {
	p.check(addr, 1)
	line := addr &^ uint64(CachelineSize-1)
	if !c.pf.room(line, c.clock) {
		return false
	}
	hit := p.lookup(c, line, p.cache.setIndex(line), false)
	c.clock += dramAccessNS // issue cost
	lat := int64(missLoadNS)
	if hit {
		lat = hitLoadNS
	} else {
		c.stats.CacheMisses++
	}
	c.pf.note(line, c.clock+lat)
	return true
}

// LoadPrefetched copies the cacheline holding addr into dst for a
// pipeline stage that reads ahead of the operation: it waits out the
// line's pending prefetch and is charged one cache hit, leaving the
// prefetch for the operation's own load and the line's set untouched. It
// reports false, and charges and moves nothing, when the line lies
// outside the pool, has no pending prefetch or is poisoned: the stage
// reads addresses outside any operation's corruption guard, so a
// poisoned line is reported, not machine-checked (no PoisonReads, no
// panic). Like Prefetch it is no fault-injection step.
func (p *Pool) LoadPrefetched(c *Ctx, addr uint64, dst *Line) bool {
	line := addr &^ uint64(CachelineSize-1)
	if line >= p.cfg.PoolSize {
		return false
	}
	r := c.pf.find(line)
	if r < 0 || p.poisoned(line) {
		return false
	}
	c.clock = max(c.clock, c.pf.ring[r].done) + hitLoadNS
	c.stats.CacheHits++
	for i := range dst {
		dst[i] = atomic.LoadUint64(&p.words[line/8+uint64(i)])
	}
	return true
}

// Hint asks the host (not the simulated device — that is Prefetch) to
// start fetching what an access to addr's cacheline will read: the data
// line and the line's cache set. A hint changes no simulated state: no
// Stats, clock, LRU rank, line-memo entry or fault step moves, a
// poisoned line raises nothing, and an address outside the pool — the
// caller may have read it from a stale bucket — is dropped.
func (p *Pool) Hint(addr uint64) {
	line := addr &^ uint64(CachelineSize-1)
	if w := line / 8; w < uint64(len(p.words)) {
		hostpf.Line(unsafe.Pointer(&p.words[w]))
		hostpf.Line(unsafe.Pointer(&p.cache.sets[p.cache.setIndex(line)]))
	}
}

// Peek returns the word at addr as it is right now, outside the
// simulation like Hint, for callers deciding what to hint next; 0 for an
// address that is misaligned or outside the pool.
func (p *Pool) Peek(addr uint64) uint64 {
	if addr&7 != 0 || addr/8 >= uint64(len(p.words)) {
		return 0
	}
	return atomic.LoadUint64(&p.words[addr/8])
}

// Crash simulates a power failure. Under eADR the reserve energy
// flushes the CPU cache, so every retired store survives; under ADR
// all dirty cachelines are rolled back to their last media image. The
// cache and XPBuffer come back empty. Crash requires the pool to be
// quiescent (no operations between Ctx.BeginOp and Ctx.EndOp): a power
// cut taken mid-operation has ill-defined simulation state unless it
// goes through the deterministic fault injector, so a non-quiescent
// Crash without an armed FaultPlan panics instead of silently
// producing an image no real power failure could. It returns the
// number of cachelines whose contents were lost.
func (p *Pool) Crash() int {
	if n := p.InFlightOps(); n > 0 && p.fault.Load() == nil {
		panic(fmt.Sprintf("pmem: Crash with %d operations in flight and no armed FaultPlan; "+
			"mid-operation power cuts must use fault injection (Pool.ArmFault)", n))
	}
	mp := p.media.Load()
	lost := p.cache.crash(p, p.cfg.Mode, mp)
	p.xpb.reset()
	p.applyMediaFaults(mp)
	if lost > 0 {
		p.mu.Lock()
		p.injected.CrashLostLines += uint64(lost)
		p.mu.Unlock()
	}
	return lost
}

// InFlightOps returns the number of operations currently executing
// (between Ctx.BeginOp and Ctx.EndOp) on this pool: the live contexts
// with an operation open, since a context has at most one outermost
// operation.
func (p *Pool) InFlightOps() int {
	return p.countCtxs(func(c *Ctx) bool { return c.inOp.Load() })
}

// countCtxs returns the number of live contexts for which pred holds.
func (p *Pool) countCtxs(pred func(*Ctx) bool) int {
	p.mu.Lock()
	defer p.mu.Unlock()
	n := 0
	for c := range p.ctxs {
		if pred(c) {
			n++
		}
	}
	return n
}

// DirtyLines reports how many cachelines are currently dirty in the
// simulated cache (diagnostic).
func (p *Pool) DirtyLines() int { return p.cache.dirtyLines() }

// copyOut copies pool bytes [addr, addr+len(dst)) into dst without
// cache simulation.
func (p *Pool) copyOut(addr uint64, dst []byte) {
	for len(dst) > 0 {
		w := atomic.LoadUint64(&p.words[addr/8])
		off := int(addr & 7)
		if off == 0 && len(dst) >= 8 {
			binary.LittleEndian.PutUint64(dst, w)
			dst = dst[8:]
			addr += 8
			continue
		}
		n := 8 - off
		if n > len(dst) {
			n = len(dst)
		}
		for i := 0; i < n; i++ {
			dst[i] = byte(w >> uint(8*(off+i)))
		}
		dst = dst[n:]
		addr += uint64(n)
	}
}

// copyIn copies src into pool bytes starting at addr without cache
// simulation. Partial words are read-modify-written.
func (p *Pool) copyIn(addr uint64, src []byte) {
	for len(src) > 0 {
		wi := addr / 8
		off := int(addr & 7)
		n := 8 - off
		if n > len(src) {
			n = len(src)
		}
		if n == 8 {
			atomic.StoreUint64(&p.words[wi], le64At(src, 0))
		} else {
			w := atomic.LoadUint64(&p.words[wi])
			for i := 0; i < n; i++ {
				sh := uint(8 * (off + i))
				w = w&^(0xFF<<sh) | uint64(src[i])<<sh
			}
			atomic.StoreUint64(&p.words[wi], w)
		}
		src = src[n:]
		addr += uint64(n)
	}
}
