package pmem

import "sync/atomic"

// memoSlots is the number of lines a context's memo can hold, a power
// of two picked by the 4/8/16 sweep in EXPERIMENTS.md; the low bits of
// an entry flag it valid and dirty.
const (
	memoSlots = 8
	memoValid = 1
	memoDirty = 2
)

// maxPrefetch bounds the number of in-flight asynchronous loads a
// single worker can track. The paper's pipeline depth tops out at 8.
const maxPrefetch = 16

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

	// prefetch tracks in-flight asynchronous loads: the line address
	// and the virtual time at which its data becomes available.
	prefetch [maxPrefetch]struct {
		line uint64
		done int64
	}
	nprefetch int

	// memo is the line memo (DESIGN.md §2 "The line memo"), a direct-mapped
	// table indexed by the low bits of a line's cache-set index. An entry
	// line|memoValid in a slot means this context's last pass through any
	// set that maps to the slot was for that line, so — for a context
	// alone on its pool — the line still holds rank 0 of its set, and with
	// memoDirty it is dirty with its ADR snapshot taken: entering the set
	// again would change nothing, and Pool.touch does not. The entries are
	// believed only while memoCrashes is the pool's crash count, and none
	// outlives the operation that made it (BeginOp). memoLast is the slot
	// of the last access, checked before the line is hashed.
	memo        [memoSlots]uint64
	memoLast    uint64
	memoCrashes uint64
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
// The outermost BeginOp empties the line memo: what a neighbour did to
// a line between two operations is never papered over by an entry made
// in the first.
func (c *Ctx) BeginOp() {
	if c.opDepth == 0 {
		c.inOp.Store(true)
		c.memo = [memoSlots]uint64{}
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
func (c *Ctx) ChargeDRAM(n int) { c.clock += int64(n) * c.pool.cfg.Timing.DRAMAccess }

// Stats returns the events recorded through this context so far.
func (c *Ctx) Stats() Stats { return c.stats }

// Release folds the context's counters into the pool's retired total.
// The context must not be used afterwards.
func (c *Ctx) Release() {
	c.pool.retire(c)
	c.pool = nil
}

// memoSlot returns the memo slot of set index si when it holds line,
// else nil.
func (c *Ctx) memoSlot(line, si uint64) *uint64 {
	if e := &c.memo[si&(memoSlots-1)]; *e&^memoDirty == line|memoValid {
		return e
	}
	return nil
}

// notePrefetch records that line will be available at virtual time
// done. If the table is full the oldest entry is dropped (matching a
// hardware prefetcher's limited tracking).
func (c *Ctx) notePrefetch(line uint64, done int64) {
	for i := 0; i < c.nprefetch; i++ {
		if c.prefetch[i].line == line {
			if done < c.prefetch[i].done {
				c.prefetch[i].done = done
			}
			return
		}
	}
	if c.nprefetch == maxPrefetch {
		copy(c.prefetch[:], c.prefetch[1:])
		c.nprefetch--
	}
	c.prefetch[c.nprefetch].line = line
	c.prefetch[c.nprefetch].done = done
	c.nprefetch++
}

// takePrefetch looks up (and removes) an in-flight load of line. It
// returns the completion time and whether a prefetch was found.
func (c *Ctx) takePrefetch(line uint64) (int64, bool) {
	for i := 0; i < c.nprefetch; i++ {
		if c.prefetch[i].line == line {
			done := c.prefetch[i].done
			c.nprefetch--
			c.prefetch[i] = c.prefetch[c.nprefetch]
			return done, true
		}
	}
	return 0, false
}
