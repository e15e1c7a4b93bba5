package pmem

import (
	"errors"
	"testing"
)

// catchAccess runs fn and returns the AccessError it panicked with, if
// any; other panics propagate.
func catchAccess(fn func()) (ae AccessError, ok bool) {
	defer func() {
		r := recover()
		if r == nil {
			return
		}
		if ae, ok = r.(AccessError); !ok {
			panic(r)
		}
	}()
	fn()
	return
}

// A line load returns the words Load64 reads, in one access: a miss on a
// cold line, then a hit.
func TestLoadLineIsOneAccess(t *testing.T) {
	p := testPool(t, EADR)
	c := p.NewCtx()
	for i := uint64(0); i < 8; i++ {
		p.Store64(c, 4096+8*i, 0x100+i)
	}
	p.Crash()
	want := DefaultTiming()
	for _, tc := range []struct {
		misses, hits uint64
		ns           int64
	}{{1, 0, want.CacheMissLoad}, {0, 1, want.CacheHitLoad}} {
		before, t0 := c.Stats(), c.Clock()
		l := p.LoadLine(c, 4096+24) // any address in the line
		d, ns := c.Stats().Sub(before), c.Clock()-t0
		if d.CacheMisses != tc.misses || d.CacheHits != tc.hits || ns != tc.ns {
			t.Errorf("line load: %d misses, %d hits, %d ns; want %d, %d, %d", d.CacheMisses, d.CacheHits, ns, tc.misses, tc.hits, tc.ns)
		}
		for i, w := range l {
			if w != 0x100+uint64(i) {
				t.Fatalf("word %d = %#x, want %#x", i, w, 0x100+i)
			}
		}
	}
}

// A line load in a poisoned XPLine machine-checks as Load64 does: a
// poisoned AccessError and one PoisonReads per load, whichever of the
// XPLine's four cachelines it reads.
func TestLoadLineMachineChecksOnPoison(t *testing.T) {
	p := mediaTestPool(EADR)
	c := p.NewCtx()
	p.PoisonLine(2 * XPLineSize)
	for i := uint64(0); i < XPLineSize/CachelineSize; i++ {
		ae, ok := catchAccess(func() { p.LoadLine(c, 2*XPLineSize+i*CachelineSize) })
		if !ok || !ae.Poisoned || !errors.Is(error(ae), ErrPoisoned) {
			t.Fatalf("line %d of the poisoned XPLine: got (%v, %v), want a poisoned AccessError", i, ae, ok)
		}
	}
	if got := c.Stats().PoisonReads; got != XPLineSize/CachelineSize {
		t.Fatalf("PoisonReads = %d, want %d", got, XPLineSize/CachelineSize)
	}
	if _, ok := catchAccess(func() { p.LoadLine(c, 3*XPLineSize) }); ok {
		t.Fatal("line load of a clean neighbouring XPLine machine-checked")
	}
}

// A line load past the pool panics with the AccessError Load64 raises
// there; the pool's last line loads.
func TestLoadLineOutOfPoolPanics(t *testing.T) {
	p := testPool(t, EADR)
	c := p.NewCtx()
	p.LoadLine(c, p.Size()-8)
	for _, addr := range []uint64{p.Size(), p.Size() + CachelineSize, ^uint64(0)} {
		ae, ok := catchAccess(func() { p.LoadLine(c, addr) })
		if !ok || ae.Poisoned || ae.Misaligned || ae.PoolSize != p.Size() {
			t.Errorf("line load at %#x: got (%+v, %v), want an out-of-pool AccessError", addr, ae, ok)
		}
	}
	if _, ok := catchAccess(func() { p.Load64(c, p.Size()) }); !ok {
		t.Fatal("Load64 past the pool did not panic with an AccessError")
	}
}
