package pmem

import (
	"math/rand"
	"testing"
)

// goldenStream drives one seeded single-context stream over every
// access kind, with half of the accesses landing on the line of the
// previous one, and returns what the context accounted.
func goldenStream(mode Mode, ways int) (Stats, int64, uint64) {
	p := New(Config{PoolSize: 1 << 20, Mode: mode, CacheSize: 16 << 10, CacheWays: ways, XPBufferLines: 8})
	c := p.NewCtx()
	rng := rand.New(rand.NewSource(42))
	const span = 256 << 10
	buf := make([]byte, 320)
	var addr, sum uint64
	for i := 0; i < 40000; i++ {
		if rng.Intn(2) == 0 {
			addr = addr&^uint64(CachelineSize-1) + uint64(rng.Intn(8))*8
		} else {
			addr = uint64(rng.Intn(span/8)) * 8
		}
		n := uint64(1 + rng.Intn(len(buf)-1))
		switch k := rng.Intn(100); {
		case k < 40:
			sum += p.Load64(c, addr)
		case k < 55:
			p.Store64(c, addr, uint64(i))
		case k < 60:
			p.CAS64(c, addr, p.Load64(c, addr), uint64(i))
		case k < 70:
			p.Read(c, addr, buf[:n])
			sum += uint64(buf[0])
		case k < 80:
			rng.Read(buf[:n])
			p.Write(c, addr, buf[:n])
		case k < 85:
			p.Flush(c, addr, n)
		case k < 90:
			p.Fence(c)
		case k < 93:
			rng.Read(buf[:n])
			p.NTStore(c, addr, buf[:n])
		case k < 99:
			p.Prefetch(c, addr)
		default:
			sum += uint64(p.Crash())
		}
	}
	return c.Stats(), c.Clock(), sum
}

// checkGolden runs the golden stream in both persistence domains. The
// accounting does not depend on the domain; the data read back (sum)
// does, through the lines an ADR crash loses.
func checkGolden(t *testing.T, ways int, want Stats, wantClock int64, eadrSum, adrSum uint64) {
	t.Helper()
	for _, g := range []struct {
		mode Mode
		sum  uint64
	}{
		{EADR, eadrSum},
		{ADR, adrSum},
	} {
		stats, clock, sum := goldenStream(g.mode, ways)
		if stats != want || clock != wantClock || sum != g.sum {
			t.Errorf("mode %v:\n got %+v clock %d sum %d\nwant %+v clock %d sum %d",
				g.mode, stats, clock, sum, want, wantClock, g.sum)
		}
	}
}

// The figures below were captured from the word-at-a-time simulator
// (every load through the set lock) before same-line load coalescing
// existed; coalescing must reproduce them to the last count.
func TestCoalescingReproducesGoldenAccounting(t *testing.T) {
	want := Stats{CacheHits: 19191, CacheMisses: 35560, CachelineReads: 35560, CachelineWrites: 6129,
		XPLineReads: 22135, XPLineWrites: 3724, Flushes: 6661, Fences: 2020, Evictions: 1527, NTStores: 3833}
	checkGolden(t, 4, want, 7742600, 2421301960484571907, 7257555627498282294)
}

// The same stream through a 16-way cache (the default associativity,
// every rank of a set's LRU order in use), captured from the per-way
// timestamp LRU at b8779b4 before the packed set replaced it.
func TestPackedSetReproduces16WayGoldenAccounting(t *testing.T) {
	want := Stats{CacheHits: 19226, CacheMisses: 35523, CachelineReads: 35523, CachelineWrites: 5455,
		XPLineReads: 22109, XPLineWrites: 3069, Flushes: 6661, Fences: 2020, Evictions: 854, NTStores: 3833}
	checkGolden(t, 16, want, 7734780, 2421301960484571907, 16725629559435081344)
}

// missesOf returns how many cache misses f caused on c.
func missesOf(c *Ctx, f func()) uint64 {
	before := c.Stats().CacheMisses
	f()
	return c.Stats().CacheMisses - before
}

func TestCurrentLineForgottenAtCrash(t *testing.T) {
	p := testPool(t, EADR)
	c := p.NewCtx()
	p.Load64(c, 64)
	if n := missesOf(c, func() { p.Load64(c, 72) }); n != 0 {
		t.Fatalf("second load of the line missed %d times", n)
	}
	p.Crash()
	if n := missesOf(c, func() { p.Load64(c, 72) }); n != 1 {
		t.Fatalf("first load after Crash: %d misses, want 1 (the cache came back empty)", n)
	}
}

func TestCurrentLineForgottenAtNTStore(t *testing.T) {
	p := testPool(t, EADR)
	c := p.NewCtx()
	p.Load64(c, 64)
	p.NTStore(c, 0, make([]byte, 3*CachelineSize))
	if n := missesOf(c, func() { p.Load64(c, 72) }); n != 1 {
		t.Fatalf("first load after an NTStore over the line: %d misses, want 1", n)
	}
}

func TestStoreToCurrentLineStillDirtiesIt(t *testing.T) {
	p := testPool(t, ADR)
	c := p.NewCtx()
	p.Load64(c, 64)
	p.Load64(c, 72)
	p.Store64(c, 72, 9)
	if n := p.DirtyLines(); n != 1 {
		t.Fatalf("DirtyLines = %d after a store to the current line, want 1", n)
	}
	if got := p.Load64(c, 72); got != 9 {
		t.Fatalf("read back %d", got)
	}
	if lost := p.Crash(); lost != 1 {
		t.Fatalf("Crash lost %d lines, want 1", lost)
	}
	if got := p.Load64(c, 72); got != 0 {
		t.Fatalf("unflushed ADR store survived the crash: %d", got)
	}
}
