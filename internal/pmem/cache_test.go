package pmem

import (
	"fmt"
	"math"
	"math/rand"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"unsafe"
)

// refCache is the cache model the packed set replaced, kept as the
// oracle of TestPackedSetMatchesTickLRU: one entry per way carrying its
// own access timestamp, the victim being the lowest-numbered empty way,
// else the occupied way with the oldest timestamp.
type refCache struct {
	sets  [][]refEntry
	ticks []uint32
	index func(line uint64) uint64
	xpb   *xpbuffer
	ctx   *Ctx // receives the stats the real context should end with
}

type refEntry struct {
	tag   uint64 // line + 1; 0 means empty
	tick  uint32
	dirty bool
	snap  [CachelineSize / 8]uint64 // words of the line when it went dirty
}

func newRefCache(p *Pool) *refCache {
	r := &refCache{
		sets:  make([][]refEntry, len(p.cache.sets)),
		ticks: make([]uint32, len(p.cache.sets)),
		index: p.cache.setIndex,
		xpb:   newXPBuffer(p.cfg.XPBufferLines),
		ctx:   &Ctx{},
	}
	for i := range r.sets {
		r.sets[i] = make([]refEntry, p.cache.ways)
	}
	return r
}

// dirtied marks e dirty, capturing the line's current words: the image
// an ADR crash must restore.
func (e *refEntry) dirtied(p *Pool, line uint64) {
	e.dirty = true
	copy(e.snap[:], p.words[line/8:])
}

func (r *refCache) access(p *Pool, line uint64, store bool) (hit bool) {
	si := r.index(line)
	set := r.sets[si]
	r.ticks[si]++
	tick, tag := r.ticks[si], line+1
	empty, lru := -1, 0
	lruTick := ^uint32(0)
	for w := range set {
		e := &set[w]
		if e.tag == tag {
			e.tick = tick
			if store && !e.dirty {
				e.dirtied(p, line)
			}
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
	e := &set[victim]
	if e.tag != 0 && e.dirty {
		r.ctx.stats.CachelineWrites++
		r.ctx.stats.Evictions++
		r.xpb.write(r.ctx, e.tag-1)
	}
	*e = refEntry{tag: tag, tick: tick}
	r.ctx.stats.CachelineReads++
	r.xpb.read(r.ctx, line)
	if store {
		e.dirtied(p, line)
	}
	return false
}

func (r *refCache) find(line uint64) *refEntry {
	set := r.sets[r.index(line)]
	for w := range set {
		if set[w].tag == line+1 {
			return &set[w]
		}
	}
	return nil
}

func (r *refCache) flushLine(line uint64) {
	if e := r.find(line); e != nil && e.dirty {
		e.dirty = false
		r.ctx.stats.CachelineWrites++
		r.xpb.write(r.ctx, line)
	}
}

func (r *refCache) invalidateLine(line uint64) {
	if e := r.find(line); e != nil {
		e.tag, e.dirty = 0, false
	}
}

// crash empties the model and returns the pool image a crash in mode
// must leave behind, with the number of lines it loses.
func (r *refCache) crash(p *Pool, mode Mode) (words []uint64, lost int) {
	words = append(words, p.words...)
	for si, set := range r.sets {
		for w := range set {
			if e := &set[w]; e.tag != 0 && e.dirty && mode == ADR {
				lost++
				copy(words[(e.tag-1)/8:], e.snap[:])
			}
			set[w] = refEntry{}
		}
		r.ticks[si] = 0
	}
	r.xpb.reset()
	return words, lost
}

// sameState compares the packed sets with the reference way by way:
// same line in the same way (the ADR snapshot slots are indexed by
// way), same dirty bit, and the occupied ways in the same LRU order —
// ranks run from the newest reference timestamp to the oldest — which
// is what makes every later eviction pick the same line.
func sameState(c *cache, r *refCache) error {
	for si := range c.sets {
		set, ref := &c.sets[si], r.sets[si]
		for w := range ref {
			var tag uint64
			if t := set.tags[w]; t != 0 {
				tag = lineOf(t) + 1
			}
			if tag != ref[w].tag || set.isDirty(w) != ref[w].dirty {
				return fmt.Errorf("set %d way %d: line+1 %#x dirty %v, reference %#x dirty %v",
					si, w, tag, set.isDirty(w), ref[w].tag, ref[w].dirty)
			}
		}
		newer := uint64(math.MaxUint64)
		for rank := 0; rank < c.ways; rank++ {
			w := int(set.order >> (4 * uint(rank)) & 0xf)
			if w >= c.ways {
				return fmt.Errorf("set %d: order %#x ranks way %d of %d", si, set.order, w, c.ways)
			}
			if ref[w].tag == 0 {
				continue
			}
			if tick := uint64(ref[w].tick); tick >= newer {
				return fmt.Errorf("set %d: order %#x ranks way %d (reference tick %d) below a way last used at tick %d",
					si, set.order, w, tick, newer)
			} else {
				newer = tick
			}
		}
	}
	return nil
}

// check verifies the invariants every cacheSet must hold between
// accesses.
func (c *cache) check() error {
	for si := range c.sets {
		set := &c.sets[si]
		set.mu.Lock()
		tags, order, dirty := set.tags, set.order, set.dirty
		set.mu.Unlock()
		var occupied, ranked uint16
		seen := map[uint32]int{}
		for w, t := range tags {
			if t == 0 {
				continue
			}
			if w >= c.ways {
				return fmt.Errorf("set %d: way %d of a %d-way set holds tag %#x", si, w, c.ways, t)
			}
			if prev, dup := seen[t]; dup {
				return fmt.Errorf("set %d: tag %#x in ways %d and %d", si, t, prev, w)
			}
			seen[t] = w
			occupied |= 1 << w
		}
		for rank := 0; rank < c.ways; rank++ {
			ranked |= 1 << (order >> (4 * uint(rank)) & 0xf)
		}
		if want := uint16(1<<c.ways - 1); ranked != want {
			return fmt.Errorf("set %d: order %#x ranks ways %#b, want %#b", si, order, ranked, want)
		}
		if dirty&^occupied != 0 {
			return fmt.Errorf("set %d: dirty %#b outside occupied %#b", si, dirty, occupied)
		}
	}
	return nil
}

func linesOf(addr, n uint64) (first, last uint64) {
	return addr &^ uint64(CachelineSize-1), (addr + n - 1) &^ uint64(CachelineSize-1)
}

// diffStream runs one seeded stream of every access kind through a pool
// whose cache (sets × ways lines) is a fraction of the address span, so
// most accesses evict, and through the reference, comparing them after
// every operation: counters, set state and the virtual clock, which the
// reference charges from Timing (hit, miss, prefetched hit, flush, fence,
// NTStore) with the context's own prefetch table. With more sets than
// memo slots two sets share a slot, so a pass through one replaces the
// entry another's line left — a prefetched line's among them, whose load
// must then enter its set again and still be charged the prefetched hit.
//
// With storeRuns, one operation in eight is instead a run of 2 to 16
// Store64/CAS64 to one line — what a record publish or a segment fill
// looks like, and what the line memo serves without entering the set —
// half of them with a Flush, NTStore or Crash of that line somewhere
// inside, after which the next store must enter it again.
//
// With revisits the stream also does what an index operation does and a
// random walk does not: it returns to one of the last few lines it
// touched (a bucket, its key record, the bucket again), it prefetches a
// line and then loads it several times while other prefetches are still
// pending (a pipelined batch), it prefetches a run of lines and then loads
// each (a record stage, whose loads find the memo entry their prefetch
// left unless a later pass took its slot), and it opens and closes
// operations (BeginOp/EndOp) around all of it.
func diffStream(t *testing.T, mode Mode, ways, sets int, seed int64, storeRuns, revisits bool) {
	const span = 64 << 10
	p := New(Config{PoolSize: span, Mode: mode, CacheSize: uint64(sets * ways * CachelineSize),
		CacheWays: ways, XPBufferLines: 8})
	c := p.NewCtx()
	r := newRefCache(p)
	st, tm := &r.ctx.stats, DefaultTiming()
	// touch mirrors Pool.touch's accounting on the reference: every line
	// enters its set, a load first consuming the line's pending prefetch.
	touch := func(addr, n uint64, store bool) {
		first, last := linesOf(addr, n)
		for line := first; line <= last; line += CachelineSize {
			done, prefetched := int64(0), false
			if !store {
				done, prefetched = r.ctx.pf.take(line)
			}
			switch hit := r.access(p, line, store); {
			case !hit && store:
				r.ctx.clock += tm.CacheMissStore
				st.CacheMisses++
			case !hit:
				r.ctx.clock += tm.CacheMissLoad
				st.CacheMisses++
			case store:
				r.ctx.clock += tm.CacheHitStore
				st.CacheHits++
			default:
				if prefetched {
					r.ctx.clock = max(r.ctx.clock, done)
				}
				r.ctx.clock += tm.CacheHitLoad
				st.CacheHits++
			}
		}
	}
	rng := rand.New(rand.NewSource(seed))
	buf := make([]byte, 320)
	inOp := false
	// do runs operation i, of kind op over [addr, addr+n), through both
	// models and compares them.
	do := func(i int, op string, addr, n uint64) {
		switch op {
		case "Load64":
			touch(addr, 8, false)
			p.Load64(c, addr)
		case "Store64":
			touch(addr, 8, true)
			p.Store64(c, addr, uint64(i))
		case "CAS64":
			touch(addr, 8, true)
			p.CAS64(c, addr, p.words[addr/8], uint64(i))
		case "Read":
			touch(addr, n, false)
			p.Read(c, addr, buf[:n])
		case "Write":
			touch(addr, n, true)
			rng.Read(buf[:n])
			p.Write(c, addr, buf[:n])
		case "Flush":
			first, last := linesOf(addr, n)
			for line := first; line <= last; line += CachelineSize {
				st.Flushes++
				r.ctx.clock += tm.FlushIssue
				r.ctx.pendingFlushes++
				r.flushLine(line)
			}
			p.Flush(c, addr, n)
		case "NTStore":
			first, last := linesOf(addr, n)
			for line := first; line <= last; line += CachelineSize {
				r.invalidateLine(line)
				st.CachelineWrites++
				st.NTStores++
				r.xpb.write(r.ctx, line)
				r.ctx.clock += tm.NTStoreLine
			}
			rng.Read(buf[:n])
			p.NTStore(c, addr, buf[:n])
		case "Prefetch":
			line := addr &^ uint64(CachelineSize-1)
			r.ctx.clock += tm.DRAMAccess
			if r.access(p, line, false) {
				r.ctx.pf.note(line, r.ctx.clock+tm.CacheHitLoad)
			} else {
				st.CacheMisses++
				r.ctx.pf.note(line, r.ctx.clock+tm.CacheMissLoad)
			}
			p.Prefetch(c, addr)
		case "Fence":
			st.Fences++
			if r.ctx.pendingFlushes > 0 {
				r.ctx.clock += tm.FenceDrain
			} else {
				r.ctx.clock += tm.FenceIdle
			}
			r.ctx.pendingFlushes = 0
			p.Fence(c)
		case "Crash":
			if inOp { // a quiescent cut: no operation may be open
				c.EndOp()
				inOp = false
			}
			want, wantLost := r.crash(p, mode)
			if lost := p.Crash(); lost != wantLost {
				t.Fatalf("op %d Crash lost %d lines, reference %d", i, lost, wantLost)
			}
			for wi, w := range want {
				if p.words[wi] != w {
					t.Fatalf("op %d Crash: word %#x = %#x, reference %#x", i, wi*8, p.words[wi], w)
				}
			}
		case "OpBoundary":
			if inOp {
				c.EndOp()
			} else {
				r.ctx.pf.dropArrived(r.ctx.clock) // as the outermost BeginOp does
				c.BeginOp()
			}
			inOp = !inOp
		}
		// Equal counters after every operation: each access agreed on
		// hit or miss and on whether it evicted a dirty line; equal sets:
		// it evicted the same line; equal clocks: it was charged the same.
		if c.stats != *st {
			t.Fatalf("op %d %s(%#x, %d):\n got %+v\nwant %+v", i, op, addr, n, c.stats, *st)
		}
		if c.clock != r.ctx.clock {
			t.Fatalf("op %d %s(%#x, %d): clock %d, reference %d", i, op, addr, n, c.clock, r.ctx.clock)
		}
		if err := sameState(p.cache, r); err != nil {
			t.Fatalf("op %d %s(%#x, %d): %v", i, op, addr, n, err)
		}
	}
	var addr uint64
	var recent [4]uint64 // lines of the last few operations
	for i := 0; i < 12000; i++ {
		recent[i%len(recent)] = addr &^ uint64(CachelineSize-1)
		switch k := rng.Intn(2); {
		case revisits && rng.Intn(3) == 0:
			addr = recent[rng.Intn(len(recent))] + uint64(rng.Intn(8))*8
		case k == 0:
			addr = addr&^uint64(CachelineSize-1) + uint64(rng.Intn(8))*8
		default:
			addr = uint64(rng.Intn(span/8)) * 8
		}
		n := uint64(1 + rng.Intn(len(buf)-1))
		if addr+n > span {
			n = span - addr
		}
		if storeRuns && rng.Intn(8) == 0 {
			line := addr &^ uint64(CachelineSize-1)
			length := 2 + rng.Intn(15)
			breakAt := 1 + rng.Intn(2*(length-1)) // past the run: no break
			for j := 0; j < length; j++ {
				if j == breakAt {
					do(i, []string{"Flush", "NTStore", "Crash"}[rng.Intn(3)], line+uint64(rng.Intn(8))*8, 8)
				}
				op := "Store64"
				if rng.Intn(4) == 0 {
					op = "CAS64"
				}
				do(i, op, line+uint64(rng.Intn(8))*8, 8)
			}
			continue
		}
		if revisits {
			switch k := rng.Intn(16); {
			case k == 0:
				do(i, "OpBoundary", 0, 0)
				continue
			case k < 3:
				// A pipelined request: its line is prefetched behind another
				// still pending, then loaded a few times, now and then
				// looking at a recent line in between.
				do(i, "Prefetch", uint64(rng.Intn(span/8))*8, 8)
				do(i, "Prefetch", addr, 8)
				line := addr &^ uint64(CachelineSize-1)
				for j := 2 + rng.Intn(4); j > 0; j-- {
					if rng.Intn(4) == 0 {
						do(i, "Load64", recent[rng.Intn(len(recent))], 8)
					}
					do(i, "Load64", line+uint64(rng.Intn(8))*8, 8)
				}
				continue
			case k == 3:
				// A batch's record stage: lines prefetched back to back,
				// then loaded in turn, so most loads find their prefetch
				// still in flight and, where no other line of the run took
				// its memo slot, its memo entry still there.
				var lines [12]uint64
				run := lines[:3+rng.Intn(len(lines)-2)]
				for j := range run {
					run[j] = uint64(rng.Intn(span/8)) * 8
					do(i, "Prefetch", run[j], 8)
				}
				for _, l := range run {
					do(i, "Load64", l, 8)
				}
				continue
			}
		}
		switch k := rng.Intn(100); {
		case k < 35:
			do(i, "Load64", addr, n)
		case k < 55:
			do(i, "Store64", addr, n)
		case k < 60:
			do(i, "CAS64", addr, n)
		case k < 70:
			do(i, "Read", addr, n)
		case k < 80:
			do(i, "Write", addr, n)
		case k < 87:
			do(i, "Flush", addr, n)
		case k < 91:
			do(i, "NTStore", addr, n)
		case k < 98:
			do(i, "Prefetch", addr, n)
		case k < 99:
			do(i, "Fence", addr, n)
		default:
			do(i, "Crash", addr, n)
		}
	}
	if inOp {
		c.EndOp()
	}
	dirty := 0
	for _, set := range r.sets {
		for _, e := range set {
			if e.tag != 0 && e.dirty {
				dirty++
			}
		}
	}
	if got := p.DirtyLines(); got != dirty {
		t.Errorf("DirtyLines = %d, reference %d", got, dirty)
	}
	if err := p.cache.check(); err != nil {
		t.Error(err)
	}
	if st.Evictions == 0 || st.CacheHits == 0 {
		t.Errorf("stream exercised no evictions or no hits: %+v", *st)
	}
}

func TestPackedSetMatchesTickLRU(t *testing.T) {
	for _, mode := range []Mode{EADR, ADR} {
		for _, ways := range []int{1, 2, 4, 8, 16} {
			t.Run(fmt.Sprintf("%v/%dway", mode, ways), func(t *testing.T) {
				for seed := int64(1); seed <= 3; seed++ {
					diffStream(t, mode, ways, 4, seed, false, false)
					diffStream(t, mode, ways, 4, seed, true, false)
					diffStream(t, mode, ways, 4, seed, true, true)
					diffStream(t, mode, ways, 16, seed, true, true)
					// More sets than memo slots; the stream crashes about
					// every hundred operations, so only a cache of at most
					// 512 lines fills up and evicts between its crashes.
					if 2*memoSlots*ways <= 512 {
						diffStream(t, mode, ways, 2*memoSlots, seed, true, true)
					}
				}
			})
		}
	}
}

// A store that follows the context's own Flush, NTStore or a Crash of its
// line is a new dirtying of it, even though the context has touched no
// other line since: under ADR the next power cut rolls that store back
// and keeps the first, which the write-back made durable. A current-line
// memo that survived the break would skip the set, leave the line clean
// and let the second store survive.
func TestStoreAfterOwnWriteBackDirtiesTheLineAgain(t *testing.T) {
	const line = 4 * CachelineSize
	for _, br := range []struct {
		name  string
		do    func(p *Pool, c *Ctx)
		first uint64 // the first word after the break
	}{
		{"Flush", func(p *Pool, c *Ctx) { p.Flush(c, line, 8) }, 1},
		{"NTStore", func(p *Pool, c *Ctx) { p.NTStore(c, line, []byte{3, 0, 0, 0, 0, 0, 0, 0}) }, 3},
		{"Crash", func(p *Pool, c *Ctx) { p.Crash() }, 0}, // ADR: the first store is lost here
	} {
		p := New(Config{PoolSize: 1 << 20, Mode: ADR})
		c := p.NewCtx()
		p.Store64(c, line, 1)
		br.do(p, c)
		p.Store64(c, line+8, 2)
		if lost := p.Crash(); lost != 1 {
			t.Errorf("%s: Crash lost %d lines, want the re-dirtied one", br.name, lost)
		}
		if w0, w1 := p.words[line/8], p.words[line/8+1]; w0 != br.first || w1 != 0 {
			t.Errorf("%s: words after the crash = %d, %d; want %d (durable before the second store) and 0 (rolled back)",
				br.name, w0, w1, br.first)
		}
	}
}

// setLines returns n+1 distinct lines of cache set si: one to work on and
// n more that, loaded after it, evict it from an n-way set.
func setLines(p *Pool, si uint64, n int) (line uint64, evictors []uint64) {
	for l := uint64(CachelineSize); line == 0 || len(evictors) < n; l += CachelineSize {
		switch {
		case p.cache.setIndex(l) != si:
		case line == 0:
			line = l
		default:
			evictors = append(evictors, l)
		}
	}
	return line, evictors
}

// One context stores a counter round-robin over three lines of three
// sets — store k puts k into the next word of line (k-1)%3 — inside
// operations of a few dozen stores, so all three lines keep a memo entry
// while a neighbour keeps flushing them and evicting them from their
// sets; now and then the writer looks at a line of a fourth set. The
// memo lets stores land while the neighbour has a line clean or gone;
// those reach media early, which any eviction may do, so whatever a power
// cut then leaves of each line must still be that line as it stood after
// some prefix of the stores to it. Run under -race.
func TestNeighbourWriteBackMidRunLeavesALegalImage(t *testing.T) {
	const nlines, ways = 3, 4
	for _, mode := range []Mode{EADR, ADR} {
		p := New(Config{PoolSize: 1 << 20, Mode: mode, CacheSize: 4 * ways * CachelineSize, CacheWays: ways})
		var lines [nlines]uint64
		var evictors [nlines][]uint64
		for l := range lines { // sets 0..2 are memo slots 0..2
			lines[l], evictors[l] = setLines(p, uint64(l), ways)
		}
		elsewhere, _ := setLines(p, nlines, 0)
		var wg sync.WaitGroup
		var stores uint64        // the writer's, once it is done
		var rounds atomic.Uint64 // the neighbour's
		var done atomic.Bool
		wg.Add(2)
		go func() {
			defer wg.Done()
			defer done.Store(true)
			c := p.NewCtx()
			defer c.Release()
			// Long enough for the neighbour to have cut in many times since
			// the first store.
			for k, r0 := uint64(1), rounds.Load(); k <= 60000 || rounds.Load()-r0 < 400; k++ {
				if k%48 == 1 {
					c.BeginOp()
				}
				p.Store64(c, lines[(k-1)%nlines]+(k-1)/nlines%8*8, k)
				stores = k
				if k%61 == 0 { // a fourth entry, in a slot of its own
					p.Load64(c, elsewhere)
				}
				if k%48 == 0 {
					c.EndOp()
				}
			}
			if stores%48 != 0 {
				c.EndOp()
			}
		}()
		go func() {
			defer wg.Done()
			c := p.NewCtx()
			defer c.Release()
			for i := uint64(0); !done.Load(); i++ {
				l := i / 2 % nlines
				if i%2 == 0 {
					p.Flush(c, lines[l], CachelineSize)
				} else {
					for _, e := range evictors[l] { // fills the set: evicts the line
						p.Load64(c, e)
					}
				}
				rounds.Add(1)
			}
		}()
		wg.Wait()
		if n := p.DirtyLines(); n > nlines {
			t.Errorf("%v: %d dirty lines, but only %d lines were ever stored to", mode, n, nlines)
		}
		if err := p.cache.check(); err != nil {
			t.Errorf("%v: %v", mode, err)
		}
		lost := p.Crash()
		for l, line := range lines {
			// Store number m (from 0) to this line was k = m*nlines+l+1,
			// into word m%8.
			k := func(m uint64) uint64 { return m*nlines + uint64(l) + 1 }
			var prefix uint64 // the stores the image holds: its largest counter
			for j := uint64(0); j < 8; j++ {
				prefix = max(prefix, p.words[line/8+j])
			}
			if prefix != 0 && (prefix-1)%nlines != uint64(l) {
				t.Errorf("%v: line %d holds %d, not one of its stores", mode, l, prefix)
				continue
			}
			for j := uint64(0); j < 8; j++ {
				want := uint64(0) // the last m <= last with m%8 == j; none of an empty prefix
				if last := (prefix - 1) / nlines; prefix != 0 && last >= j {
					want = k(last - (last-j)%8)
				}
				if got := p.words[line/8+j]; got != want {
					t.Errorf("%v: line %d word %d = %d after the crash, but the image holds store %d: want %d",
						mode, l, j, got, prefix, want)
				}
			}
			if final := k((stores - 1 - uint64(l)) / nlines); mode == EADR && prefix != final {
				t.Errorf("eADR: the crash kept line %d up to store %d of %d", l, prefix, final)
			}
		}
		if mode == EADR && lost != 0 {
			t.Errorf("eADR: the crash lost %d lines", lost)
		}
	}
}

// What a neighbour does to a line between two of a context's operations
// is never hidden by a memo entry from the first: the outermost BeginOp
// empties the table, and outside any operation an entry lives only until
// the context's next pass through a set. Here the neighbour's Flush makes
// the first store durable and the line clean, so the second store must
// dirty it again and an ADR power cut rolls exactly that one back; with
// the stale entry believed it would skip the set and survive.
func TestMemoEntryDoesNotOutliveItsOperation(t *testing.T) {
	for _, tc := range []struct {
		name           string
		first, between func(p *Pool, c *Ctx, line, other uint64)
	}{
		{"the next operation",
			func(p *Pool, c *Ctx, line, _ uint64) { c.BeginOp(); p.Store64(c, line, 1); c.EndOp() },
			func(p *Pool, c *Ctx, _, _ uint64) { c.BeginOp() }},
		{"outside any operation, another line later",
			func(p *Pool, c *Ctx, line, other uint64) { p.Store64(c, line, 1); p.Store64(c, other, 7) },
			func(p *Pool, c *Ctx, _, _ uint64) {}},
	} {
		p := New(Config{PoolSize: 1 << 20, Mode: ADR, CacheSize: 16 * CachelineSize, CacheWays: 4})
		line, _ := setLines(p, 1, 0)
		other, _ := setLines(p, 2, 0) // another memo slot: does not replace line's entry
		c, neighbour := p.NewCtx(), p.NewCtx()
		tc.first(p, c, line, other)
		p.Flush(neighbour, line, 8)
		p.Flush(neighbour, other, 8)
		tc.between(p, c, line, other)
		p.Store64(c, line+8, 2)
		if c.opDepth > 0 {
			c.EndOp()
		}
		if lost := p.Crash(); lost != 1 {
			t.Errorf("%s: Crash lost %d lines, want the re-dirtied one", tc.name, lost)
		}
		if w0, w1 := p.words[line/8], p.words[line/8+1]; w0 != 1 || w1 != 0 {
			t.Errorf("%s: words after the crash = %d, %d; want 1 (written back by the neighbour) and 0 (rolled back)",
				tc.name, w0, w1)
		}
	}
}

func panicOf(f func()) (msg string) {
	defer func() { msg = fmt.Sprint(recover()) }()
	f()
	return
}

func TestNewRejectsWhatThePackedSetCannotHold(t *testing.T) {
	for _, tc := range []struct {
		name  string
		cfg   Config
		field string // named by the panic; "" means accepted
	}{
		{"17 ways", Config{PoolSize: 1 << 20, CacheWays: 17}, "Config.CacheWays"},
		{"negative ways", Config{PoolSize: 1 << 20, CacheWays: -1}, "Config.CacheWays"},
		{"2^38 B pool", Config{PoolSize: 1 << 38}, "Config.PoolSize"},
		{"largest taggable pool", Config{PoolSize: 1<<38 - XPLineSize}, ""},
		{"16 ways", Config{PoolSize: 1 << 20, CacheWays: 16}, ""},
	} {
		// validateCache is what New runs before allocating anything; the
		// accepted 2^38-256 B pool is not one a test can allocate.
		msg := panicOf(func() { validateCache(tc.cfg.withDefaults()) })
		if tc.field == "" {
			if msg != "<nil>" {
				t.Errorf("%s: rejected: %s", tc.name, msg)
			}
			continue
		}
		if !strings.HasPrefix(msg, "pmem: "+tc.field) {
			t.Errorf("%s: panic %q does not name %s", tc.name, msg, tc.field)
		}
		if got := panicOf(func() { New(tc.cfg) }); got != msg {
			t.Errorf("%s: New panicked with %q, want %q", tc.name, got, msg)
		}
	}
}

// A one-set cache of every supported associativity fills its ways in
// order, hits on all of them, and then evicts exactly the least
// recently used line — never a rank the set does not have.
func TestEveryAssociativityEvictsItsLRU(t *testing.T) {
	for _, ways := range []int{1, 2, 4, 8, 16} {
		p := New(Config{PoolSize: 1 << 20, CacheSize: uint64(ways * CachelineSize), CacheWays: ways})
		c := p.NewCtx()
		line := func(i int) uint64 { return uint64(i+1) * CachelineSize }
		load := func(i int) uint64 { return missesOf(c, func() { p.Load64(c, line(i)) }) }
		for i := 0; i < ways; i++ {
			if load(i) != 1 {
				t.Fatalf("%d-way: first load of line %d hit", ways, i)
			}
		}
		for i := ways - 1; i >= 0; i-- { // line 0 ends most recent, line ways-1 least
			if load(i) != 0 {
				t.Fatalf("%d-way: resident line %d missed", ways, i)
			}
		}
		for i := 0; i < 3*ways; i++ { // each fill must evict the oldest line and nothing else
			if load(ways+i) != 1 {
				t.Fatalf("%d-way: new line %d hit", ways, ways+i)
			}
			if err := p.cache.check(); err != nil {
				t.Fatalf("%d-way after fill %d: %v", ways, i, err)
			}
			oldest := ways - 1 - i // the descending reload order, then the fills in order
			if i >= ways {
				oldest = i
			}
			if got := p.cache.sets[0].find(tagOf(line(oldest))); got >= 0 {
				t.Fatalf("%d-way fill %d: LRU line %d still resident in way %d", ways, i, oldest, got)
			}
		}
	}
}

func TestCacheSetIsOneAlignedLinePair(t *testing.T) {
	if size := unsafe.Sizeof(cacheSet{}); size != 128 {
		t.Fatalf("unsafe.Sizeof(cacheSet{}) = %d, want 128", size)
	}
	for _, n := range []uint64{1, 2, 64, 8192} {
		sets := newSets(n)
		if a := uintptr(unsafe.Pointer(&sets[0])); a%128 != 0 || uint64(len(sets)) != n {
			t.Errorf("newSets(%d): %d sets at %#x, want %d sets on a 128-byte boundary", n, len(sets), a, n)
		}
	}
}

// Two contexts hammer a two-set cache with every kind of access; run
// under -race this checks the set lock covers all of a set's fields.
func TestTwoContextHammerKeepsSetInvariants(t *testing.T) {
	for _, mode := range []Mode{EADR, ADR} {
		const span = 16 << 10
		p := New(Config{PoolSize: span, Mode: mode, CacheSize: 2 * 4 * CachelineSize, CacheWays: 4, XPBufferLines: 8})
		var wg sync.WaitGroup
		for g := 0; g < 2; g++ {
			wg.Add(1)
			go func(seed int64) {
				defer wg.Done()
				c := p.NewCtx()
				defer c.Release()
				rng := rand.New(rand.NewSource(seed))
				buf := make([]byte, 200)
				for i := 0; i < 20000; i++ {
					addr := uint64(rng.Intn(span/8-len(buf)/8)) * 8
					switch rng.Intn(8) {
					case 0, 1:
						p.Load64(c, addr)
					case 2:
						p.Store64(c, addr, uint64(i))
					case 3:
						p.CAS64(c, addr, 0, uint64(i))
					case 4:
						p.Read(c, addr, buf)
					case 5:
						p.Write(c, addr, buf)
					case 6:
						p.Flush(c, addr, uint64(len(buf)))
					default:
						p.NTStore(c, addr, buf[:CachelineSize])
					}
				}
			}(int64(g + 1))
		}
		wg.Wait()
		if err := p.cache.check(); err != nil {
			t.Errorf("%v: %v", mode, err)
		}
		p.Crash()
		if err := p.cache.check(); err != nil {
			t.Errorf("%v after Crash: %v", mode, err)
		}
		if n := p.DirtyLines(); n != 0 {
			t.Errorf("%v: %d dirty lines after Crash", mode, n)
		}
	}
}

// BenchmarkCacheAccess is the wall-clock cost of one simulated line
// access (ROADMAP item 1's `pmem` ledger row) on the default platform.
// Each case walks a fixed random permutation of lines, so consecutive
// accesses never share a line and every one enters its set: the miss
// case cycles through 4x the simulated cache, which LRU turns into a
// miss (and a fill) every time; the hit cases stay inside half of it.
func BenchmarkCacheAccess(b *testing.B) {
	cfg := DefaultConfig()
	for _, bc := range []struct {
		name  string
		span  uint64
		store bool
	}{
		{"load_hit", cfg.CacheSize / 2, false},
		{"load_miss", 4 * cfg.CacheSize, false},
		{"store_hit", cfg.CacheSize / 2, true},
	} {
		b.Run(bc.name, func(b *testing.B) {
			p := New(cfg)
			c := p.NewCtx()
			addrs := make([]uint64, bc.span/CachelineSize)
			for i, j := range rand.New(rand.NewSource(1)).Perm(len(addrs)) {
				addrs[i] = uint64(j+1) * CachelineSize
			}
			access := func(a, v uint64) {
				if bc.store {
					p.Store64(c, a, v)
				} else {
					benchSink += p.Load64(c, a)
				}
			}
			for _, a := range addrs { // one lap to reach the steady state
				access(a, a)
			}
			before := c.Stats()
			b.ResetTimer()
			for i, k := 0, 0; i < b.N; i++ {
				access(addrs[k], uint64(i))
				if k++; k == len(addrs) {
					k = 0
				}
			}
			b.StopTimer()
			d := c.Stats().Sub(before)
			b.ReportMetric(float64(d.CacheHits)/float64(b.N), "hits/op")
		})
	}
}

var benchSink uint64
