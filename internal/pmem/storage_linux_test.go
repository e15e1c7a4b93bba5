package pmem

import (
	"runtime"
	"testing"
	"time"
)

// storageConfig is a pool of the given capacity behind a small cache, so
// the Go-heap side of a pool (sets, XPBuffer) is a few kilobytes.
func storageConfig(size uint64) Config {
	return Config{PoolSize: size, CacheSize: 64 << 10, CacheWays: 8, XPBufferLines: 16}
}

// TestPoolStorageOffHeap: a 512 MB pool adds under 1 MB to the Go heap,
// so the runtime neither zeroes nor scans its words.
func TestPoolStorageOffHeap(t *testing.T) {
	cfg := storageConfig(512 << 20)
	New(cfg) // warm-up: the heap already holds room for the small parts
	runtime.GC()
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	p := New(cfg)
	runtime.ReadMemStats(&after)
	// Signed: HeapSys also falls when heap spans become goroutine stacks.
	if grown := int64(after.HeapSys) - int64(before.HeapSys); grown >= 1<<20 {
		t.Fatalf("a %d MB pool grew HeapSys by %d bytes", cfg.PoolSize>>20, grown)
	}
	runtime.KeepAlive(p)
}

// TestFreshPoolLastWordIsZero: a word no one wrote reads 0, at the very
// end of the reservation too.
func TestFreshPoolLastWordIsZero(t *testing.T) {
	p := New(storageConfig(512 << 20))
	last := p.Size() - 8
	if got := p.Peek(last); got != 0 {
		t.Fatalf("Peek(last word) = %#x on a fresh pool", got)
	}
	c := p.NewCtx()
	defer c.Release()
	if got := p.Load64(c, last); got != 0 {
		t.Fatalf("Load64(last word) = %#x on a fresh pool", got)
	}
	p.Store64(c, last, 7)
	if got := p.Load64(c, last); got != 7 {
		t.Fatalf("Load64(last word) = %d after storing 7", got)
	}
}

// awaitMappings runs the collector until at most want pool mappings are
// live, or fails after a deadline: finalizers run on their own goroutine
// some time after the cycle that found their object unreachable.
func awaitMappings(t *testing.T, want int64) {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for liveMappings.Load() > want {
		if time.Now().After(deadline) {
			t.Fatalf("%d pool mappings live, want at most %d", liveMappings.Load(), want)
		}
		runtime.GC()
		time.Sleep(time.Millisecond)
	}
}

// TestDroppedPoolIsUnmapped: a pool that becomes unreachable — with a
// live context, so Pool.ctxs and Ctx.pool form a cycle — gives its
// mapping back, and a create-and-drop loop that never forces a
// collection keeps the number of mappings bounded (the fuzz targets make
// pools like this, and vm.max_map_count caps a process's mappings).
// Collections are paced by the Go heap alone, which does not see the
// mappings; each pool here carries a 1 MB simulated cache, ~300 KB of Go
// heap, so its own garbage drives them as a default pool's 8 MB cache
// does. Two vCPUs read 24–106 mappings at the peak idle, up to 197 with a
// busy loop on one of them.
func TestDroppedPoolIsUnmapped(t *testing.T) {
	awaitMappings(t, 0)
	func() {
		p := New(storageConfig(64 << 20))
		c := p.NewCtx()
		p.Store64(c, 64, 1)
	}()
	awaitMappings(t, 0)

	const pools = 2000
	cfg := storageConfig(4 << 20)
	cfg.CacheSize = 1 << 20
	var peak int64
	for i := 0; i < pools; i++ {
		p := New(cfg)
		c := p.NewCtx()
		p.Store64(c, uint64(i%1024)*8+8, uint64(i))
		peak = max(peak, liveMappings.Load())
	}
	if peak > pools/4 {
		t.Fatalf("%d pools created and dropped: up to %d mappings live at once", pools, peak)
	}
	awaitMappings(t, 0)
	t.Logf("%d pools created and dropped: at most %d mappings live at once", pools, peak)
}
