package pmem

import (
	"sync/atomic"
)

// This file implements deterministic media-fault injection: unlike the
// power-failure injector (fault.go), which only decides *which* dirty
// cachelines survive a crash, the media injector corrupts the surviving
// image the way real DCPMM fails — single-bit rot in media words, torn
// 8-byte interleavings inside a cacheline write-back that was cut by
// the power failure, and poisoned XPLines whose reads surface as
// machine checks (here: a typed AccessError panic) instead of data.
//
// All corruption is derived from a seed, so a failing trial replays
// exactly. Faults are applied when the pool crashes — either a
// quiescent Pool.Crash or the firing of an armed FaultPlan — which is
// when real media damage becomes visible (the pre-crash run never read
// the damaged lines).

// MediaFaultPlan describes one deterministic batch of media faults,
// applied at the next crash of the pool it is armed on (ArmMediaFault).
// Plans are single-use.
type MediaFaultPlan struct {
	// Seed drives every random choice (fault addresses, bit positions,
	// torn-word masks). Two runs with equal seeds inject identically.
	Seed uint64

	// BitFlips is the number of single-bit flips applied to media
	// words after the crash's persistence-domain semantics.
	BitFlips int

	// TornLines bounds how many dirty cachelines are torn instead of
	// cleanly rolled back when the crash happens in ADR mode: a torn
	// line keeps a pseudorandom subset of its new 8-byte words and
	// rolls the rest back, modelling a write-back cut mid-line. Under
	// eADR the reserve energy completes every write-back, so torn
	// injection is honestly a no-op (0 lines torn).
	TornLines int

	// PoisonLines is the number of XPLines marked poisoned: every read
	// overlapping one panics with AccessError{Poisoned: true} until a
	// store overwrites (and thereby clears) the line.
	PoisonLines int

	// Frames, when non-empty, restricts bit flips and poison to the
	// given XPLine-aligned 256-byte frames (e.g. the index's segment
	// addresses, via core.Index.SegmentAddrs). Empty targets the whole
	// pool past the first 4 KiB of allocator metadata.
	Frames []uint64

	applied atomic.Bool
	rng     uint64
	tornCut int
	// injected counts what was actually applied; merged into the
	// pool's Stats after the crash.
	injected Stats
}

// splitmix64 is the seeded PRNG behind every media-fault choice.
func splitmix64(x *uint64) uint64 {
	*x += 0x9E3779B97F4A7C15
	z := *x
	z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9
	z = (z ^ (z >> 27)) * 0x94D049BB133111EB
	return z ^ (z >> 31)
}

// Injected returns the per-kind counts of faults actually applied
// (zero until the crash happens).
func (mp *MediaFaultPlan) Injected() Stats { return mp.injected }

// Applied reports whether the plan's faults have been injected.
func (mp *MediaFaultPlan) Applied() bool { return mp.applied.Load() }

// tearMask returns, for one dirty line about to be rolled back under
// ADR, the 8-bit mask of 8-byte words that keep their NEW value (bit i
// = word i survives). A zero mask means the line rolls back cleanly.
// The mask is forced to mix old and new words, so every consumed torn
// budget actually tears.
func (mp *MediaFaultPlan) tearMask() uint64 {
	if mp == nil || mp.tornCut >= mp.TornLines {
		return 0
	}
	mp.tornCut++
	mp.injected.MediaTornLines++
	m := splitmix64(&mp.rng) & 0xFF
	if m == 0 || m == 0xFF {
		m = 0x0F
	}
	return m
}

// pickWordAddr chooses the media word for one bit flip.
func (mp *MediaFaultPlan) pickWordAddr(p *Pool) uint64 {
	r := splitmix64(&mp.rng)
	if len(mp.Frames) > 0 {
		frame := mp.Frames[r%uint64(len(mp.Frames))]
		return frame + splitmix64(&mp.rng)%(XPLineSize/8)*8
	}
	lo := uint64(4096)
	return lo + r%((p.cfg.PoolSize-lo)/8)*8
}

// pickLine chooses the XPLine base for one poisoned line.
func (mp *MediaFaultPlan) pickLine(p *Pool) uint64 {
	r := splitmix64(&mp.rng)
	if len(mp.Frames) > 0 {
		return mp.Frames[r%uint64(len(mp.Frames))] &^ uint64(XPLineSize-1)
	}
	lo := uint64(4096)
	return lo + r%((p.cfg.PoolSize-lo)/XPLineSize)*XPLineSize
}

// ArmMediaFault installs a media-fault plan, applied at the pool's
// next crash. Only one plan can be armed at a time.
func (p *Pool) ArmMediaFault(mp *MediaFaultPlan) {
	if mp == nil {
		panic("pmem: ArmMediaFault(nil)")
	}
	mp.rng = mp.Seed
	if !p.media.CompareAndSwap(nil, mp) {
		panic("pmem: a MediaFaultPlan is already armed")
	}
}

// DisarmMediaFault removes the armed media plan and returns it (nil if
// none). Already-applied damage — flipped words, poisoned lines —
// stays in the media, exactly like real bit rot.
func (p *Pool) DisarmMediaFault() *MediaFaultPlan {
	return p.media.Swap(nil)
}

// MediaFaultArmed reports whether a media plan is currently armed.
func (p *Pool) MediaFaultArmed() bool { return p.media.Load() != nil }

// applyMediaFaults injects the plan's bit flips and poisoned lines
// into the post-crash image. Torn lines were already applied during
// the cache's crash rollback; their counts merge here.
func (p *Pool) applyMediaFaults(mp *MediaFaultPlan) {
	if mp == nil || mp.applied.Swap(true) {
		return
	}
	for i := 0; i < mp.BitFlips; i++ {
		addr := mp.pickWordAddr(p)
		bit := splitmix64(&mp.rng) % 64
		w := atomic.LoadUint64(&p.words[addr/8])
		atomic.StoreUint64(&p.words[addr/8], w^uint64(1)<<bit)
		mp.injected.MediaBitFlips++
	}
	for i := 0; i < mp.PoisonLines; i++ {
		p.poisonLine(mp.pickLine(p))
		mp.injected.MediaPoisonedLines++
	}
	p.mu.Lock()
	p.injected = p.injected.Add(mp.injected)
	p.mu.Unlock()
}

// poisonLine marks the XPLine at base (aligned down) poisoned.
func (p *Pool) poisonLine(base uint64) {
	base &^= uint64(XPLineSize - 1)
	p.poisonMu.Lock()
	if p.poison == nil {
		p.poison = make(map[uint64]struct{})
	}
	if _, ok := p.poison[base]; !ok {
		p.poison[base] = struct{}{}
		p.poisonN.Add(1)
	}
	p.poisonMu.Unlock()
}

// PoisonLine poisons the XPLine containing addr directly (test and
// fsck-torture hook; equivalent to one PoisonLines pick landing there).
func (p *Pool) PoisonLine(addr uint64) { p.poisonLine(addr) }

// PoisonedLines returns the number of currently poisoned XPLines.
func (p *Pool) PoisonedLines() int { return int(p.poisonN.Load()) }

// checkPoison panics with a poisoned AccessError if [addr, addr+size)
// overlaps a poisoned XPLine. The fast path is one atomic load.
func (p *Pool) checkPoison(c *Ctx, addr, size uint64) {
	if p.poisonN.Load() == 0 || size == 0 {
		return
	}
	first := addr &^ uint64(XPLineSize-1)
	last := (addr + size - 1) &^ uint64(XPLineSize-1)
	p.poisonMu.Lock()
	for line := first; line <= last; line += XPLineSize {
		if _, ok := p.poison[line]; ok {
			p.poisonMu.Unlock()
			c.stats.PoisonReads++
			panic(AccessError{Addr: line, Size: XPLineSize, Poisoned: true})
		}
	}
	p.poisonMu.Unlock()
}

// poisoned reports whether the XPLine holding addr is poisoned, without
// the machine check checkPoison raises.
func (p *Pool) poisoned(addr uint64) bool {
	if p.poisonN.Load() == 0 {
		return false
	}
	p.poisonMu.Lock()
	_, ok := p.poison[addr&^uint64(XPLineSize-1)]
	p.poisonMu.Unlock()
	return ok
}

// clearPoison heals every poisoned XPLine overlapping [addr,
// addr+size): a store overwrites the uncorrectable data, which is how
// real PM clears poison.
func (p *Pool) clearPoison(addr, size uint64) {
	if p.poisonN.Load() == 0 || size == 0 {
		return
	}
	first := addr &^ uint64(XPLineSize-1)
	last := (addr + size - 1) &^ uint64(XPLineSize-1)
	p.poisonMu.Lock()
	for line := first; line <= last; line += XPLineSize {
		if _, ok := p.poison[line]; ok {
			delete(p.poison, line)
			p.poisonN.Add(-1)
		}
	}
	p.poisonMu.Unlock()
}
