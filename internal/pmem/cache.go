package pmem

import (
	"sync"
	"sync/atomic"
)

// cacheEntry is one way of one cache set.
type cacheEntry struct {
	// tag is the line address + 1; 0 means the way is empty.
	tag   uint64
	tick  uint32
	dirty bool
}

// cacheSet is one associativity set. Its mutex also covers the word
// stores performed by the pool while the line's residency is being
// established, which keeps ADR snapshots consistent.
type cacheSet struct {
	mu   sync.Mutex
	tick uint32
}

// cache models the shared CPU cache in front of the PM media.
type cache struct {
	sets    []cacheSet
	entries []cacheEntry // len(sets) * ways, flat
	ways    int
	mask    uint64 // numSets - 1
	// snaps holds, in ADR mode, the pre-dirty media image of each
	// dirty line (64 bytes per way). nil in eADR mode.
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
		sets:    make([]cacheSet, numSets),
		entries: make([]cacheEntry, numSets*uint64(ways)),
		ways:    ways,
		mask:    numSets - 1,
	}
	if cfg.Mode == ADR {
		c.snaps = make([]byte, numSets*uint64(ways)*CachelineSize)
	}
	return c
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

// access looks up line, filling it on a miss (write-allocate policy).
// It returns whether the line was already resident. All media traffic
// caused by the access (fill, dirty victim write-back) is recorded on
// ctx and coalesced through the pool's XPBuffer.
func (c *cache) access(p *Pool, ctx *Ctx, line uint64, store bool) (hit bool) {
	si := c.setIndex(line)
	set := &c.sets[si]
	base := si * uint64(c.ways)
	set.mu.Lock()
	set.tick++
	tag := line + 1

	empty, lru := -1, 0
	var lruTick uint32 = ^uint32(0)
	for w := 0; w < c.ways; w++ {
		e := &c.entries[base+uint64(w)]
		if e.tag == tag {
			e.tick = set.tick
			if store && !e.dirty {
				c.snapshot(p, base+uint64(w), line)
				e.dirty = true
			}
			set.mu.Unlock()
			return true
		}
		if e.tag == 0 {
			if empty < 0 {
				empty = w
			}
		} else if e.tick < lruTick {
			lru, lruTick = w, e.tick
		}
	}
	victim := lru
	if empty >= 0 {
		victim = empty
	}

	// Miss: evict the LRU (or an empty) way, then fill.
	e := &c.entries[base+uint64(victim)]
	if e.tag != 0 && e.dirty {
		ctx.stats.CachelineWrites++
		ctx.stats.Evictions++
		p.xpb.write(ctx, e.tag-1)
	}
	e.tag = tag
	e.tick = set.tick
	e.dirty = false
	ctx.stats.CachelineReads++
	p.xpb.read(ctx, line)
	if store {
		c.snapshot(p, base+uint64(victim), line)
		e.dirty = true
	}
	set.mu.Unlock()
	return false
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
// written back to media and marked clean, remaining resident. Returns
// whether a write-back happened.
func (c *cache) flushLine(p *Pool, ctx *Ctx, line uint64) bool {
	si := c.setIndex(line)
	set := &c.sets[si]
	base := si * uint64(c.ways)
	set.mu.Lock()
	tag := line + 1
	wrote := false
	for w := 0; w < c.ways; w++ {
		e := &c.entries[base+uint64(w)]
		if e.tag == tag {
			if e.dirty {
				e.dirty = false
				ctx.stats.CachelineWrites++
				p.xpb.write(ctx, line)
				wrote = true
			}
			break
		}
	}
	set.mu.Unlock()
	return wrote
}

// invalidateLine drops the line from the cache without writing it
// back. Used by ntstore, whose data bypasses the cache and fully
// overwrites the line in media.
func (c *cache) invalidateLine(line uint64) {
	si := c.setIndex(line)
	set := &c.sets[si]
	base := si * uint64(c.ways)
	set.mu.Lock()
	tag := line + 1
	for w := 0; w < c.ways; w++ {
		e := &c.entries[base+uint64(w)]
		if e.tag == tag {
			e.tag = 0
			e.dirty = false
			break
		}
	}
	set.mu.Unlock()
}

// crash applies the persistence-domain semantics of a power failure
// and empties the cache. In ADR mode every dirty line is rolled back
// to its pre-dirty media image; the number of lines lost is returned.
// In eADR mode dirty lines are (conceptually) flushed by the reserve
// energy, so nothing is lost. Every context's current-line memo goes
// stale with the pool's crash count.
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
			e := &c.entries[base+uint64(w)]
			if e.tag != 0 && e.dirty && mode == ADR {
				lost++
				line := e.tag - 1
				snap := c.snaps[(base+uint64(w))*CachelineSize:]
				w0 := line / 8
				keep := mp.tearMask()
				for i := 0; i < CachelineSize/8; i++ {
					if keep>>i&1 == 1 {
						continue // torn: this word's new value reached media
					}
					atomic.StoreUint64(&p.words[w0+uint64(i)], le64At(snap, i*8))
				}
			}
			e.tag = 0
			e.dirty = false
			e.tick = 0
		}
		set.tick = 0
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
		base := uint64(si) * uint64(c.ways)
		set.mu.Lock()
		for w := 0; w < c.ways; w++ {
			if e := &c.entries[base+uint64(w)]; e.tag != 0 && e.dirty {
				n++
			}
		}
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
