package pmem

import (
	"math/bits"
	"sync/atomic"
)

// memoSlots is the number of lines a context's memo can hold: a power
// of two and a multiple of 64 (Ctx.memoUsed has a bit per slot). A
// batch's prefetched lines wait in it for their loads, up to maxPrefetch
// of them besides the operation's own runs. With 32 slots a batch entered more
// sets than TestSetEntriesPerOperation allows (EXPERIMENTS.md "Line memo
// serves prefetched loads"), and so did 64 once the record stage ran as
// soon as a bucket had arrived, up to PipelineDepth-1 requests ahead:
// more record lines wait at once, and more of them share a slot with a
// later pass (EXPERIMENTS.md "Arrival-driven record stage"). The low
// bits of an entry flag it valid and dirty.
const (
	memoSlots = 128
	memoValid = 1
	memoDirty = 2
)

// Ctx is the per-worker execution context. Every memory operation on a
// Pool takes a Ctx; the pool charges virtual time to the Ctx's clock
// and accumulates the worker's event counters locally, so the hot path
// has no cross-worker contention.
//
// A Ctx must not be used from two goroutines at once. A worker that
// lives for the whole run can keep one Ctx; short-lived workers should
// Release their Ctx when done so its counters fold into the pool.
type Ctx struct {
	pool *Pool

	// clock is the worker's virtual time in nanoseconds.
	clock int64
	// pendingFlushes counts clwb operations issued since the last
	// fence; it determines the fence's drain cost.
	pendingFlushes int

	// pf tracks in-flight asynchronous loads (prefetch.go).
	pf prefetchTable

	// memo is the line memo (DESIGN.md §2 "The line memo"), a direct-mapped
	// table indexed by the low bits of a line's cache-set index. An entry
	// line|memoValid in a slot means this context's last pass through any
	// set that maps to the slot was for that line, so — for a context
	// alone on its pool — the line still holds rank 0 of its set, and with
	// memoDirty it is dirty with its ADR snapshot taken: entering the set
	// again would change nothing, and Pool.touch does not. The entries are
	// believed only while memoCrashes is the pool's crash count, and none
	// outlives the operation that made it (BeginOp). memoLast is the slot
	// of the last access, checked before the line is hashed. memoUsed has
	// a bit for every slot lookup wrote since the table was last emptied,
	// so emptying it clears those slots, not all memoSlots.
	memo        [memoSlots]uint64
	memoLast    uint64
	memoCrashes uint64
	memoUsed    [memoSlots / 64]uint64
	// setEntries counts this context's passes through a cache set, for the
	// gate that pins how many an operation makes (setentries_test.go).
	setEntries uint64

	// opDepth tracks BeginOp/EndOp nesting: while > 0 this worker has an
	// operation in flight and the pool refuses quiescent-only Crash
	// calls. atomicDepth tracks BeginAtomic/EndAtomic nesting for the
	// fault injector's failure-atomic sections (fault.go).
	opDepth     int
	atomicDepth int
	// inOp and inAtomic publish the outermost operation and section to
	// the pool's counts (Pool.InFlightOps, the firing fault's drain),
	// which read them under Pool.mu. Only this context writes them, so
	// the per-operation write stays on a line no other worker writes;
	// inAtomic is set before the section's counted step, so a cut firing
	// on another worker either drains the section or unwinds it.
	inOp     atomic.Bool
	inAtomic atomic.Bool

	stats Stats
}

// BeginOp marks the start of an index operation on this worker. Ops
// may nest (an operation that calls another counts once); while any
// operation is in flight, Pool.Crash without an armed FaultPlan
// panics, because a mid-operation power cut is only well-defined when
// taken through the deterministic fault injector.
//
// The outermost BeginOp empties the line memo and drops the pending
// prefetches whose data has arrived: what a neighbour did to a line
// between two operations is never papered over by an entry made in the
// first.
func (c *Ctx) BeginOp() {
	if c.opDepth == 0 {
		c.inOp.Store(true)
		c.memoClear()
		c.pf.dropArrived(c.clock)
	}
	c.opDepth++
}

// EndOp marks the end of the innermost operation started by BeginOp.
// It is safe in a deferred call on the injected-crash unwind path.
func (c *Ctx) EndOp() {
	if c.opDepth == 0 {
		panic("pmem: EndOp without BeginOp")
	}
	c.opDepth--
	if c.opDepth == 0 {
		c.inOp.Store(false)
	}
}

// Arrives returns the virtual time at which the asynchronous load of
// addr's cacheline arrives, and 0 when the context has none in flight: a
// load has arrived when this is at most Clock. It reads the prefetch
// table and changes nothing — no Stats, clock, LRU rank or memo entry —
// so a caller can ask once, keep the answer and compare it with the
// clock later; a load that is consumed or dropped meanwhile had arrived
// by then, and one noted again can only arrive sooner.
func (c *Ctx) Arrives(addr uint64) int64 {
	if r := c.pf.find(addr &^ uint64(CachelineSize-1)); r >= 0 {
		return c.pf.ring[r].done
	}
	return 0
}

// InOp reports whether this worker has an operation in flight (BeginOp).
func (c *Ctx) InOp() bool { return c.opDepth > 0 }

// Clock returns the worker's virtual time in nanoseconds.
func (c *Ctx) Clock() int64 { return c.clock }

// ResetClock zeroes the worker's virtual clock (used at phase
// boundaries by the harness).
func (c *Ctx) ResetClock() { c.clock = 0 }

// Charge advances the worker's clock by ns nanoseconds. Index code
// uses it to account for work on volatile structures (hashing, DRAM
// directory walks) that does not touch the simulated pool.
func (c *Ctx) Charge(ns int64) { c.clock += ns }

// ChargeDRAM advances the clock by n DRAM access costs.
func (c *Ctx) ChargeDRAM(n int) { c.clock += int64(n) * dramAccessNS }

// Stats returns the events recorded through this context so far.
func (c *Ctx) Stats() Stats { return c.stats }

// Release folds the context's counters into the pool's retired total.
// The context must not be used afterwards.
func (c *Ctx) Release() {
	c.pool.retire(c)
	c.pool = nil
}

// memoClear empties the line memo.
func (c *Ctx) memoClear() {
	for w, u := range c.memoUsed {
		for ; u != 0; u &= u - 1 {
			c.memo[(w*64+bits.TrailingZeros64(u))&(memoSlots-1)] = 0
		}
		c.memoUsed[w] = 0
	}
}

// memoSlot returns the memo slot of set index si when it holds line,
// else nil.
func (c *Ctx) memoSlot(line, si uint64) *uint64 {
	if e := &c.memo[si&(memoSlots-1)]; *e&^memoDirty == line|memoValid {
		return e
	}
	return nil
}
