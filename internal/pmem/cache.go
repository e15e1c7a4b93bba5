package pmem

import (
	"fmt"
	"math/bits"
	"sync"
	"sync/atomic"
	"unsafe"
)

// maxWays is the largest associativity a cacheSet can hold: its LRU
// order is sixteen 4-bit ranks in one word.
const maxWays = 16

// maxPoolSize bounds the pool so that every line number + 1 fits a
// cacheSet's 32-bit tag: 2^32-1 lines, just under 2^38 bytes.
const maxPoolSize = (1<<32 - 1) * CachelineSize

// cacheSet is one associativity set, packed so that everything one
// simulated line access reads or writes sits in a single 128-byte,
// 128-aligned block of the host's memory — one adjacent-line pair, one
// real miss — instead of a header here and sixteen ways in another
// array.
//
// order is the set's exact LRU order as a permutation of way numbers,
// one nibble per rank: nibble 0 is the most recently used way, nibble
// ways-1 the least. Every hit and every fill moves the way to rank 0,
// so once the set is full its ways are ordered by their last access and
// the last rank is the way a per-way access timestamp would pick. The
// nibbles above ways-1 hold the way numbers the set does not have and
// are never read.
//
// The mutex orders a line's ADR snapshot read with its dirty mark: one
// store's entry captures the pre-store image and sets the bit before any
// later entry sees the line dirty. It does not cover the pool's word
// stores, which happen after access has unlocked (and, for a repeat store
// to a line in the context's memo, without entering the set at all): a word
// written while a neighbour evicts or flushes the line is one that
// reached media early.
type cacheSet struct {
	mu    sync.Mutex
	order uint64
	// tags holds line number + 1 per way; 0 means the way is empty.
	tags [maxWays]uint32
	// dirty has bit w set while way w holds a dirty line.
	dirty uint16
	_     [46]byte
}

// initialOrder ranks way i at rank i.
const initialOrder = 0xfedcba9876543210

// cache models the shared CPU cache in front of the PM media.
type cache struct {
	sets []cacheSet
	ways int
	mask uint64 // numSets - 1
	// snaps holds, in ADR mode, the pre-dirty media image of each
	// dirty line (64 bytes per way, indexed set*ways+way). nil in eADR
	// mode.
	snaps []byte
}

func newCache(cfg Config) *cache {
	lines := cfg.CacheSize / CachelineSize
	ways := cfg.CacheWays
	numSets := nextPow2(lines / uint64(ways))
	if numSets == 0 {
		numSets = 1
	}
	c := &cache{
		sets: newSets(numSets),
		ways: ways,
		mask: numSets - 1,
	}
	if cfg.Mode == ADR {
		c.snaps = make([]byte, numSets*uint64(ways)*CachelineSize)
	}
	return c
}

// newSets returns n empty sets, the first on a 128-byte boundary. The
// backing array is pointer-free words, as is cacheSet, so viewing one
// as the other hides nothing from the collector.
func newSets(n uint64) []cacheSet {
	const size = unsafe.Sizeof(cacheSet{})
	raw := make([]uint64, (uintptr(n)+1)*size/8)
	base := unsafe.Pointer(&raw[0])
	pad := -uintptr(base) & (size - 1)
	sets := unsafe.Slice((*cacheSet)(unsafe.Add(base, pad)), n)
	for i := range sets {
		sets[i].order = initialOrder
	}
	return sets
}

func nextPow2(v uint64) uint64 {
	if v == 0 {
		return 0
	}
	p := uint64(1)
	for p < v {
		p <<= 1
	}
	return p
}

// validateCache panics on a configuration the packed set would silently
// alias: more ways than order has ranks, or a line number wider than a
// tag.
func validateCache(cfg Config) {
	if cfg.CacheWays < 1 || cfg.CacheWays > maxWays {
		panic(fmt.Sprintf("pmem: Config.CacheWays = %d, want 1..%d", cfg.CacheWays, maxWays))
	}
	if cfg.PoolSize > maxPoolSize {
		panic(fmt.Sprintf("pmem: Config.PoolSize = %d exceeds the %d bytes (2^32-1 lines) the cache model can tag",
			cfg.PoolSize, uint64(maxPoolSize)))
	}
}

// setIndex maps a line to a set. The index is hashed rather than
// sliced directly from the address: in a real shared LLC, complex
// indexing and unrelated traffic decorrelate the eviction times of
// neighbouring lines, which is exactly what turns unflushed multi-line
// writes into random single-line write-backs (Observation 2). Direct
// indexing would keep the lines of one XPLine in lockstep LRU
// positions and artificially preserve their coalescing.
func (c *cache) setIndex(line uint64) uint64 {
	x := line / CachelineSize
	x ^= x >> 33
	x *= 0xff51afd7ed558ccd
	x ^= x >> 33
	return x & c.mask
}

// tagOf is the tag a resident line carries.
func tagOf(line uint64) uint32 { return uint32(line/CachelineSize) + 1 }

// lineOf is the line address a non-empty tag stands for.
func lineOf(tag uint32) uint64 { return uint64(tag-1) * CachelineSize }

// isDirty reports whether way w holds a dirty line.
func (s *cacheSet) isDirty(w int) bool { return s.dirty>>w&1 != 0 }

// find returns the way holding tag, or -1. Ways the set does not have
// keep tag 0 and never match.
func (s *cacheSet) find(tag uint32) int {
	for w, t := range &s.tags {
		if t == tag {
			return w
		}
	}
	return -1
}

// promote moves way w to rank 0, shifting the ranks above it down one.
func (s *cacheSet) promote(w int) {
	o := s.order
	if o&0xf == uint64(w) {
		return
	}
	// The lowest zero nibble of o^(w repeated) is w's rank; the borrow
	// of the subtraction can only raise false flags above it.
	x := o ^ uint64(w)*0x1111111111111111
	sh := uint(bits.TrailingZeros64((x-0x1111111111111111)&^x&0x8888888888888888)) &^ 3
	below := o & (1<<sh - 1)
	s.order = o&^(1<<(sh+4)-1) | below<<4 | uint64(w)
}

// victim returns the way a fill replaces: the lowest-numbered empty
// way, else the least recently used one.
func (s *cacheSet) victim(ways int) int {
	for w, t := range s.tags[:ways] {
		if t == 0 {
			return w
		}
	}
	return int(s.order >> (4 * uint(ways-1)) & 0xf)
}

// access looks up line in its set si, filling it on a miss
// (write-allocate policy). It returns whether the line was already
// resident, and whether it leaves the set dirty. All media traffic
// caused by the access (fill, dirty victim write-back) is recorded on
// ctx and coalesced through the pool's XPBuffer.
func (c *cache) access(p *Pool, ctx *Ctx, line, si uint64, store bool) (hit, dirty bool) {
	set := &c.sets[si]
	tag := tagOf(line)
	set.mu.Lock()
	w := set.find(tag)
	if hit = w >= 0; !hit {
		// Miss: evict the LRU (or fill an empty) way.
		w = set.victim(c.ways)
		if set.isDirty(w) {
			ctx.stats.CachelineWrites++
			ctx.stats.Evictions++
			p.xpb.write(ctx, lineOf(set.tags[w]))
		}
		set.tags[w] = tag
		set.dirty &^= 1 << w
		ctx.stats.CachelineReads++
		p.xpb.read(ctx, line)
	}
	set.promote(w)
	if dirty = set.isDirty(w); store && !dirty {
		c.snapshot(p, si*uint64(c.ways)+uint64(w), line)
		set.dirty |= 1 << w
		dirty = true
	}
	set.mu.Unlock()
	return hit, dirty
}

// snapshot captures the media image of line into the way's snapshot
// slot (ADR mode only) so Crash can roll the line back.
func (c *cache) snapshot(p *Pool, way uint64, line uint64) {
	if c.snaps == nil {
		return
	}
	dst := c.snaps[way*CachelineSize : (way+1)*CachelineSize]
	w0 := line / 8
	for i := 0; i < CachelineSize/8; i++ {
		putLE64(dst[i*8:], atomic.LoadUint64(&p.words[w0+uint64(i)]))
	}
}

// flushLine implements clwb: if the line is resident and dirty it is
// written back to media and marked clean, remaining resident (and
// keeping its LRU rank). Returns whether a write-back happened.
func (c *cache) flushLine(p *Pool, ctx *Ctx, line, si uint64) bool {
	set := &c.sets[si]
	set.mu.Lock()
	wrote := false
	if w := set.find(tagOf(line)); w >= 0 && set.isDirty(w) {
		set.dirty &^= 1 << w
		ctx.stats.CachelineWrites++
		p.xpb.write(ctx, line)
		wrote = true
	}
	set.mu.Unlock()
	return wrote
}

// invalidateLine drops the line from the cache without writing it
// back. Used by ntstore, whose data bypasses the cache and fully
// overwrites the line in media. The emptied way keeps its rank; the
// next fill of the set takes it and promotes it.
func (c *cache) invalidateLine(line, si uint64) {
	set := &c.sets[si]
	set.mu.Lock()
	if w := set.find(tagOf(line)); w >= 0 {
		set.tags[w] = 0
		set.dirty &^= 1 << w
	}
	set.mu.Unlock()
}

// crash applies the persistence-domain semantics of a power failure
// and empties the cache. In ADR mode every dirty line is rolled back
// to its pre-dirty media image; the number of lines lost is returned.
// In eADR mode dirty lines are (conceptually) flushed by the reserve
// energy, so nothing is lost. Every context's line memo goes stale with
// the pool's crash count.
//
// With an armed MediaFaultPlan (mp non-nil), up to mp.TornLines of the
// ADR rollbacks are torn: a pseudorandom subset of the line's 8-byte
// words keeps the new value while the rest roll back, modelling a
// media write-back cut mid-line. eADR has no rollbacks to tear.
func (c *cache) crash(p *Pool, mode Mode, mp *MediaFaultPlan) (lost int) {
	for si := range c.sets {
		set := &c.sets[si]
		base := uint64(si) * uint64(c.ways)
		set.mu.Lock()
		for w := 0; w < c.ways; w++ {
			if mode != ADR || !set.isDirty(w) {
				continue
			}
			lost++
			snap := c.snaps[(base+uint64(w))*CachelineSize:]
			w0 := lineOf(set.tags[w]) / 8
			keep := mp.tearMask()
			for i := 0; i < CachelineSize/8; i++ {
				if keep>>i&1 == 1 {
					continue // torn: this word's new value reached media
				}
				atomic.StoreUint64(&p.words[w0+uint64(i)], le64At(snap, i*8))
			}
		}
		set.tags = [maxWays]uint32{}
		set.dirty = 0
		set.order = initialOrder
		set.mu.Unlock()
	}
	p.crashes.Add(1) // after the sets are empty: see Pool.lookup
	return lost
}

// dirtyLines returns the number of currently dirty cache lines
// (diagnostic; used by tests).
func (c *cache) dirtyLines() int {
	n := 0
	for si := range c.sets {
		set := &c.sets[si]
		set.mu.Lock()
		n += bits.OnesCount16(set.dirty)
		set.mu.Unlock()
	}
	return n
}

func putLE64(b []byte, v uint64) {
	_ = b[7]
	b[0] = byte(v)
	b[1] = byte(v >> 8)
	b[2] = byte(v >> 16)
	b[3] = byte(v >> 24)
	b[4] = byte(v >> 32)
	b[5] = byte(v >> 40)
	b[6] = byte(v >> 48)
	b[7] = byte(v >> 56)
}

func le64At(b []byte, off int) uint64 {
	b = b[off:]
	_ = b[7]
	return uint64(b[0]) | uint64(b[1])<<8 | uint64(b[2])<<16 | uint64(b[3])<<24 |
		uint64(b[4])<<32 | uint64(b[5])<<40 | uint64(b[6])<<48 | uint64(b[7])<<56
}
