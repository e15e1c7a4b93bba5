package pmem

import (
	"math/rand"
	"testing"
)

// listTable is the prefetch table as a plain list: noted in order, a full
// list drops its first entry, and taking an entry moves the last into its
// place. prefetchTable must keep exactly this order.
type listTable []pfEntry

func (l *listTable) note(line uint64, done int64) {
	for i := range *l {
		if e := &(*l)[i]; e.line == line {
			e.done = min(e.done, done)
			return
		}
	}
	if len(*l) == maxPrefetch {
		*l = append((*l)[:0], (*l)[1:]...)
	}
	*l = append(*l, pfEntry{line: line, done: done})
}

func (l *listTable) take(line uint64) (int64, bool) {
	for i, e := range *l {
		if e.line == line {
			last := len(*l) - 1
			(*l)[i] = (*l)[last]
			*l = (*l)[:last]
			return e.done, true
		}
	}
	return 0, false
}

// The table answers every note and take as the list does, keeps the
// list's order, and its filter counts exactly the live entries.
func TestPrefetchTableMatchesList(t *testing.T) {
	for seed := int64(1); seed <= 20; seed++ {
		rng := rand.New(rand.NewSource(seed))
		var tab prefetchTable
		var ref listTable
		lines := 8 + rng.Intn(56) // from a table that rarely fills to one that always does
		for i := 0; i < 20000; i++ {
			line := uint64(rng.Intn(lines)) * CachelineSize
			if rng.Intn(2) == 0 {
				done := int64(rng.Intn(1000))
				tab.note(line, done)
				ref.note(line, done)
			} else {
				got, ok := tab.take(line)
				done, rok := ref.take(line)
				if ok != rok || got != done {
					t.Fatalf("seed %d op %d: take(%#x) = %d, %v; list %d, %v", seed, i, line, got, ok, done, rok)
				}
			}
			if tab.n != len(ref) {
				t.Fatalf("seed %d op %d: %d entries, list %d", seed, i, tab.n, len(ref))
			}
			for k, e := range ref {
				if got := tab.ring[(tab.head+k)%maxPrefetch]; got.line != e.line || got.done != e.done {
					t.Fatalf("seed %d op %d: entry %d = %+v, list %+v", seed, i, k, got, e)
				}
				if r := tab.find(e.line); r != (tab.head+k)%maxPrefetch {
					t.Fatalf("seed %d op %d: find(%#x) = ring slot %d, want %d", seed, i, e.line, r, (tab.head+k)%maxPrefetch)
				}
			}
			var cnt [pfSlots]uint8
			for _, e := range ref {
				cnt[tab.home(e.line)]++
			}
			if cnt != tab.cnt {
				t.Fatalf("seed %d op %d: the filter counts %v, the entries %v", seed, i, tab.cnt, cnt)
			}
		}
	}
}

// A prefetch that would drop a load still in flight is not issued: it
// charges nothing and leaves the line out of the cache, so the line's own
// load misses in full. Once the oldest load has arrived, a prefetch drops
// it as before.
func TestPrefetchKeepsLoadsInFlight(t *testing.T) {
	p := New(Config{PoolSize: 1 << 20, CacheSize: 1 << 20})
	tm := DefaultTiming()
	c := p.NewCtx()
	c.BeginOp()
	defer c.EndOp()
	for i := uint64(0); i < maxPrefetch; i++ {
		if !p.Prefetch(c, i*CachelineSize) {
			t.Fatalf("prefetch %d of %d refused", i+1, maxPrefetch)
		}
	}
	extra := uint64(maxPrefetch) * CachelineSize
	clock, misses := c.Clock(), c.Stats().CacheMisses
	if p.Prefetch(c, extra) {
		t.Fatal("a prefetch dropped a load still in flight")
	}
	if c.Clock() != clock || c.Stats().CacheMisses != misses {
		t.Fatalf("the refused prefetch charged %d ns and %d misses", c.Clock()-clock, c.Stats().CacheMisses-misses)
	}
	p.Load64(c, extra)
	if got := c.Clock() - clock; got != tm.CacheMissLoad {
		t.Fatalf("the refused line's load took %d ns, want a miss's %d", got, tm.CacheMissLoad)
	}
	if !p.Prefetch(c, CachelineSize) {
		t.Fatal("a prefetch of a line in flight was refused")
	}
	c.ChargeDRAM(int(tm.CacheMissLoad / tm.DRAMAccess)) // the first loads arrive
	if !p.Prefetch(c, extra+CachelineSize) {
		t.Fatal("a prefetch was refused with every load arrived")
	}
	if _, ok := c.pf.take(0); ok {
		t.Fatal("the oldest load was kept, not dropped")
	}
}

// A full table whose oldest load is still in flight makes room by
// dropping a later one whose data has arrived.
func TestPrefetchDropsAnArrivedLoadFirst(t *testing.T) {
	p := New(Config{PoolSize: 1 << 20, CacheSize: 1 << 20})
	c := p.NewCtx()
	c.BeginOp()
	defer c.EndOp()
	const cached = 1 << 19
	p.Load64(c, cached) // a prefetch of it hits: its data arrives at once
	p.Prefetch(c, 0)
	p.Prefetch(c, cached)
	for i := uint64(2); i < maxPrefetch; i++ {
		p.Prefetch(c, i*CachelineSize)
	}
	c.ChargeDRAM(4)
	if !p.Prefetch(c, maxPrefetch*CachelineSize) {
		t.Fatal("a prefetch was refused with one load arrived")
	}
	if _, ok := c.pf.take(cached); ok {
		t.Fatal("the arrived load was kept")
	}
	if _, ok := c.pf.take(0); !ok {
		t.Fatal("the oldest load, still in flight, was dropped")
	}
}
