package cceh

import (
	"encoding/binary"
	"testing"

	"spash/internal/alloc"
	"spash/internal/baselines/common"
	"spash/internal/hash"
	"spash/internal/pmem"
)

// getAccesses returns the cache accesses (hits and misses) w's Get of key
// makes, and whether it found key.
func getAccesses(t *testing.T, w *Worker, key []byte) (uint64, bool) {
	t.Helper()
	before := w.c.Stats()
	_, found, err := w.Search(key, nil)
	if err != nil {
		t.Fatal(err)
	}
	d := w.c.Stats().Sub(before)
	return d.CacheHits + d.CacheMisses, found
}

// A Get reads each bucket line of its probe window at most once, the
// matching slot's value word included: it costs its directory and lock
// words plus one access per bucket scanned. A Get of a key in any slot of
// its home bucket therefore costs three accesses less than a Get of an
// absent key homed there, which scans the window's four buckets, and a
// key in the next bucket two less.
func TestGetEntersItsBucketLineOnce(t *testing.T) {
	pool := pmem.New(pmem.Config{PoolSize: 64 << 20, CacheSize: 1 << 20})
	c := pool.NewCtx()
	al, err := alloc.New(c, pool)
	if err != nil {
		t.Fatal(err)
	}
	ix, err := New(c, pool, al)
	if err != nil {
		t.Fatal(err)
	}
	w := ix.NewWorker().(*Worker)
	// Six inline keys homed in one bucket of one segment: four fill it,
	// the fifth lands in the next bucket, the sixth stays absent.
	depth := ix.meta.Load().depth
	groups := map[[2]uint64][][]byte{}
	var keys [][]byte
	for v := uint64(1); keys == nil; v++ {
		k := binary.LittleEndian.AppendUint64(nil, v)
		h := common.HashKey(k)
		g := [2]uint64{hash.Prefix(h, depth), h % bucketsPerSeg}
		if groups[g] = append(groups[g], k); len(groups[g]) == 6 {
			keys = groups[g]
		}
	}
	for _, k := range keys[:5] {
		if err := w.Insert(k, k); err != nil {
			t.Fatal(err)
		}
	}
	absent, found := getAccesses(t, w, keys[5])
	if found {
		t.Fatal("the sixth key was found")
	}
	for i, k := range keys[:5] {
		want := absent - 3
		if i == 4 {
			want = absent - 2
		}
		if got, found := getAccesses(t, w, k); !found || got != want {
			t.Errorf("Get of key %d: found %v, %d accesses; want %d (an absent key's %d)", i, found, got, want, absent)
		}
	}
}
