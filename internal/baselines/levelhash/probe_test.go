package levelhash

import (
	"encoding/binary"
	"testing"

	"spash/internal/alloc"
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

// A Get reads each candidate bucket's line at most once, the matching
// slot's value word included: it costs its lock word plus one access per
// candidate scanned. A Get of a key in any slot of its first candidate
// therefore costs three accesses less than a Get of an absent key with
// the same first candidate, which scans all four.
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
	// Five inline keys whose first candidate is one top-level bucket: four
	// fill it, the fifth stays absent.
	top := ix.tab.Load().top
	groups := map[uint64][][]byte{}
	var keys [][]byte
	for v := uint64(1); keys == nil; v++ {
		k := binary.LittleEndian.AppendUint64(nil, v)
		h1, _ := hashes(k)
		b := h1 % top.buckets
		if groups[b] = append(groups[b], k); len(groups[b]) == 5 {
			keys = groups[b]
		}
	}
	for _, k := range keys[:4] {
		if err := w.Insert(k, k); err != nil {
			t.Fatal(err)
		}
	}
	absent, found := getAccesses(t, w, keys[4])
	if found {
		t.Fatal("the fifth key was found")
	}
	for i, k := range keys[:4] {
		if got, found := getAccesses(t, w, k); !found || got != absent-3 {
			t.Errorf("Get of the key in slot %d: found %v, %d accesses; want %d (an absent key's %d less three)", i, found, got, absent-3, absent)
		}
	}
}
