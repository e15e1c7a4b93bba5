package pmem

import "sync"

// xpShards is the number of independently locked XPBuffer shards.
// Shard selection uses the low XPLine-address bits, so all cachelines
// of one XPLine always land in the same shard and can coalesce.
const xpShards = 16

// drainTicks is the write-combining window, in shard operations. The
// XPBuffer is a staging buffer that drains to media continuously, not
// a cache: accesses to an XPLine coalesce only while they arrive close
// together (a sequential flush burst, the back-to-back lines of one
// chunk). An access after the window has drained costs a fresh media
// access — this is why repeated flushes to a hot region keep consuming
// PM write bandwidth (Observation 3).
const drainTicks = 32

// xpEntry is one open XPLine in the media's combining buffer.
type xpEntry struct {
	// tag is the XPLine address + 1; 0 means empty.
	tag   uint64
	tick  uint32
	dirty bool
	// lastTouch is the shard tick of the last coalesced access; the
	// entry's window is drained once the shard advances past it by
	// drainTicks.
	lastTouch uint32
}

// xpShard is padded to a 64 B line: every access to a shard writes its
// lock and tick, and a neighbouring shard is another XPLine's.
type xpShard struct {
	mu      sync.Mutex
	tick    uint32
	entries []xpEntry
	_       [24]byte
}

// xpbuffer models the small write-combining buffer in front of the PM
// media (the "XPBuffer" of Yang et al., FAST'20). Cacheline-sized
// transfers to/from media that fall into an XPLine already open in the
// buffer coalesce into a single media access; everything else costs a
// full 256-byte media access. This mechanism is what makes sequential
// flushing cheap and random dirty-line eviction expensive
// (Observations 2 and 3 in the paper).
type xpbuffer struct {
	shards [xpShards]xpShard
}

func newXPBuffer(totalLines int) *xpbuffer {
	per := totalLines / xpShards
	if per < 1 {
		per = 1
	}
	b := &xpbuffer{}
	for i := range b.shards {
		b.shards[i].entries = make([]xpEntry, per)
	}
	return b
}

func (b *xpbuffer) shard(xpl uint64) *xpShard {
	return &b.shards[(xpl/XPLineSize)%xpShards]
}

// lookup finds or installs the XPLine containing line. It returns the
// entry (locked via the shard mutex held by the caller) and whether it
// was already open.
func (s *xpShard) lookup(xpl uint64) (*xpEntry, bool) {
	s.tick++
	tag := xpl + 1
	empty, lru := -1, 0
	var lruTick uint32 = ^uint32(0)
	for i := range s.entries {
		e := &s.entries[i]
		if e.tag == tag {
			e.tick = s.tick
			return e, true
		}
		if e.tag == 0 {
			if empty < 0 {
				empty = i
			}
		} else if e.tick < lruTick {
			lru, lruTick = i, e.tick
		}
	}
	victim := lru
	if empty >= 0 {
		victim = empty
	}
	e := &s.entries[victim]
	e.tag = tag
	e.tick = s.tick
	e.dirty = false
	e.lastTouch = s.tick
	return e, false
}

// fresh reports whether the entry's combining window is still open.
func (s *xpShard) fresh(e *xpEntry) bool {
	return s.tick-e.lastTouch <= drainTicks
}

// write records a cacheline write-back to media. Writes to an XPLine
// whose combining window is open coalesce for free; anything else
// costs one media XPLine write.
func (b *xpbuffer) write(ctx *Ctx, line uint64) {
	xpl := line &^ uint64(XPLineSize-1)
	s := b.shard(xpl)
	s.mu.Lock()
	e, open := s.lookup(xpl)
	if !open || !e.dirty || !s.fresh(e) {
		e.dirty = true
		ctx.stats.XPLineWrites++
	}
	e.lastTouch = s.tick
	s.mu.Unlock()
}

// read records a cacheline fetch from media. A fetch whose XPLine is
// open and fresh in the buffer is served from it without a media
// access.
func (b *xpbuffer) read(ctx *Ctx, line uint64) {
	xpl := line &^ uint64(XPLineSize-1)
	s := b.shard(xpl)
	s.mu.Lock()
	e, open := s.lookup(xpl)
	if !open || !s.fresh(e) {
		ctx.stats.XPLineReads++
	}
	e.lastTouch = s.tick
	s.mu.Unlock()
}

// reset empties the buffer (crash or phase boundary).
func (b *xpbuffer) reset() {
	for i := range b.shards {
		s := &b.shards[i]
		s.mu.Lock()
		for j := range s.entries {
			s.entries[j] = xpEntry{}
		}
		s.tick = 0
		s.mu.Unlock()
	}
}
