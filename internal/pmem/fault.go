package pmem

import (
	"errors"
	"fmt"
	"runtime"
	"sync/atomic"
)

// This file implements deterministic crash-point fault injection: a
// simulated power failure triggered in the middle of an operation, at
// an exact persistence-primitive step, instead of only at quiescent
// cuts (Pool.Crash).
//
// Step counting. While a FaultPlan is armed, every primitive that can
// change the durable image or its crash behaviour counts one step:
// Store64, CAS64, Write, NTStore, Flush and Fence (each call is one
// step regardless of byte count; loads are not counted because the
// image before and after a load is identical). A transactional commit
// publish (htm) is bracketed by BeginAtomic/EndAtomic and counts as a
// single step at its start: real RTM makes a commit's visibility — and
// on eADR, durability — atomic, so a power cut can land before or
// after a transaction but never inside it. The irrevocable fallback
// path is raw stores and is deliberately NOT bracketed; its steps
// count individually, as on real hardware.
//
// Firing. When the armed step is reached, the pool applies exactly the
// semantics of Pool.Crash — under eADR every retired store survives,
// under ADR all dirty cachelines roll back to their media image — and
// then unwinds the victim goroutine with a crash sentinel panic. Wrap
// workload code in CatchCrash to turn the unwind into ErrInjectedCrash
// at the operation boundary. After firing, every further counted
// primitive (from any context) unwinds the same way, so concurrent
// operations cannot mutate the post-crash image; DisarmFault re-enables
// the pool for recovery.
//
// Concurrency. The cut is a single instant across every worker, but
// two cases need care. (1) A failure-atomic section open on another
// worker when the cut fires is drained first — its primitives complete
// and the whole section lands before the snapshot — because real RTM
// retires a commit atomically; the cut serialises before or after a
// concurrent commit, never inside it. (2) Workers spinning on volatile
// state (a stripe lock, a directory lock bit, a resize generation)
// whose holder unwound at the cut would otherwise spin forever; such
// loops poll CheckLive so they observe the power loss and unwind too.

// ErrInjectedCrash is returned by CatchCrash when an armed FaultPlan
// fired inside the guarded function.
var ErrInjectedCrash = errors.New("pmem: injected power failure")

// crashSignal is the panic value that unwinds the victim of an
// injected crash. It intentionally does not implement error: nothing
// should handle it except CatchCrash (or IsInjectedCrash in a
// recovery backstop that must re-panic it).
type crashSignal struct{}

// FaultPlan is one deterministic injected power failure. Arm it on a
// pool with ArmFault; the plan counts persistence-primitive steps and
// fires the crash just before the CrashAtStep-th step executes. A plan
// with CrashAtStep == 0 never fires and only counts (use Steps after a
// run to size an exhaustive sweep). Plans are single-use.
type FaultPlan struct {
	// CrashAtStep is the 1-based step at which the power cut fires;
	// the counted primitive itself never executes. 0 = count only.
	CrashAtStep int64

	count atomic.Int64
	fired atomic.Bool
	lost  atomic.Int64
}

// Steps returns the number of persistence-primitive steps counted so
// far (the total step count of the run, if the plan never fired).
func (fp *FaultPlan) Steps() int64 { return fp.count.Load() }

// Fired reports whether the injected crash has happened.
func (fp *FaultPlan) Fired() bool { return fp.fired.Load() }

// LinesLost returns the number of dirty cachelines rolled back when
// the crash fired (always 0 under eADR).
func (fp *FaultPlan) LinesLost() int { return int(fp.lost.Load()) }

// ArmFault installs a fault plan on the pool. Only one plan can be
// armed at a time.
func (p *Pool) ArmFault(fp *FaultPlan) {
	if fp == nil {
		panic("pmem: ArmFault(nil)")
	}
	if !p.fault.CompareAndSwap(nil, fp) {
		panic("pmem: a FaultPlan is already armed")
	}
}

// DisarmFault removes the armed plan (after a fired crash, this is
// what makes the pool usable again — for Recover) and returns it, or
// nil if none was armed.
func (p *Pool) DisarmFault() *FaultPlan {
	return p.fault.Swap(nil)
}

// FaultArmed reports whether a fault plan is currently armed.
func (p *Pool) FaultArmed() bool { return p.fault.Load() != nil }

// step performs the fault-injection bookkeeping for one persistence
// primitive, firing the armed crash when its step is reached.
func (p *Pool) step(c *Ctx) {
	fp := p.fault.Load()
	if fp == nil {
		return
	}
	if c.atomicDepth > 0 {
		// Inside a failure-atomic section (counted at its start). The
		// section's primitives never observe the cut — not even one
		// fired concurrently by another worker: the firing context
		// drains open sections before it snapshots, so a commit
		// publish retires whole or not at all.
		return
	}
	if fp.fired.Load() {
		// The power is already off: nothing executes after the cut.
		panic(crashSignal{})
	}
	if n := fp.count.Add(1); fp.CrashAtStep > 0 && n == fp.CrashAtStep {
		fp.fired.Store(true)
		// Let in-flight failure-atomic sections finish publishing
		// before the cut takes effect: hardware RTM retires a commit
		// atomically, so a cut racing with a commit on another core
		// serialises after it, never inside it. fired is already set,
		// so no new section (or primitive) can start. A section open on
		// c itself is the one whose own counted step fired: the victim,
		// not a survivor — never wait on it. The count takes the pool's
		// lock once per poll and releases it before yielding.
		open := func(o *Ctx) bool { return o != c && o.inAtomic.Load() }
		for p.countCtxs(open) > 0 {
			runtime.Gosched()
		}
		mp := p.media.Load()
		fp.lost.Store(int64(p.cache.crash(p, p.cfg.Mode, mp)))
		p.xpb.reset()
		p.applyMediaFaults(mp)
		panic(crashSignal{})
	}
}

// CheckLive panics with the crash sentinel if an armed fault has
// fired. Loads are not counted steps, and spin loops waiting on
// volatile state count none either — a worker parked on a lock whose
// holder will never release it (because the holder unwound at the
// cut) must poll CheckLive so it observes the power loss instead of
// spinning forever.
func (p *Pool) CheckLive() {
	if fp := p.fault.Load(); fp != nil && fp.fired.Load() {
		panic(crashSignal{})
	}
}

// BeginAtomic opens a failure-atomic section on behalf of worker c:
// the section counts as one fault-injection step at this call (an
// injected crash can land before it, leaving none of the section's
// stores in the image) and the primitives inside it count none (a
// crash can never land between them). Used by the htm package for the
// commit publish, mirroring hardware RTM's all-or-nothing commit.
// Sections may nest.
func (p *Pool) BeginAtomic(c *Ctx) {
	if c.atomicDepth == 0 {
		// Register before the counted step: once past its step the
		// section is visible to a concurrently-firing fault, which
		// drains it before snapshotting (see step). If the crash
		// lands on the section's own step, unwind the registration.
		c.inAtomic.Store(true)
		defer func() {
			if r := recover(); r != nil {
				if c.atomicDepth == 0 {
					c.inAtomic.Store(false)
				}
				panic(r)
			}
		}()
	}
	p.step(c)
	c.atomicDepth++
}

// EndAtomic closes the innermost failure-atomic section.
func (p *Pool) EndAtomic(c *Ctx) {
	if c.atomicDepth == 0 {
		panic("pmem: EndAtomic without BeginAtomic")
	}
	c.atomicDepth--
	if c.atomicDepth == 0 {
		c.inAtomic.Store(false)
	}
}

// CatchCrash runs fn, converting an injected-crash unwind into
// ErrInjectedCrash. It is the operation-boundary recover point: wrap
// the workload (not individual pool calls) so the victim operation
// unwinds cleanly and the caller can proceed to recovery.
func CatchCrash(fn func() error) (err error) {
	defer func() {
		if r := recover(); r != nil {
			if IsInjectedCrash(r) {
				err = ErrInjectedCrash
				return
			}
			panic(r)
		}
	}()
	return fn()
}

// IsInjectedCrash reports whether a recovered panic value is an
// injected-crash unwind. Recovery backstops that convert panics into
// errors must re-panic such values so CatchCrash still sees them.
func IsInjectedCrash(r any) bool {
	_, ok := r.(crashSignal)
	return ok
}

// ErrPoisoned matches (via errors.Is) any AccessError caused by a read
// of a poisoned XPLine.
var ErrPoisoned = errors.New("pmem: read of poisoned media")

// AccessError is the panic value raised by the pool on an
// out-of-bounds or misaligned access, and on a read overlapping a
// poisoned XPLine. It is a typed value (rather than a bare string) so
// recovery code can convert stray accesses on corrupted images into
// descriptive errors, and so read paths can distinguish uncorrectable
// media (Poisoned) from program bugs.
type AccessError struct {
	Addr, Size uint64
	PoolSize   uint64
	Misaligned bool
	Poisoned   bool
}

func (e AccessError) Error() string {
	if e.Poisoned {
		return fmt.Sprintf("pmem: uncorrectable media error (poisoned XPLine) at %#x", e.Addr)
	}
	if e.Misaligned {
		return fmt.Sprintf("pmem: unaligned 64-bit access at %#x", e.Addr)
	}
	return fmt.Sprintf("pmem: access [%#x,%#x) out of pool bounds %#x", e.Addr, e.Addr+e.Size, e.PoolSize)
}

// Is makes errors.Is(err, ErrPoisoned) match poisoned AccessErrors.
func (e AccessError) Is(target error) bool {
	return target == ErrPoisoned && e.Poisoned
}
