package clevel

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

// A Get reads its bucket's line once, whichever slot holds the key: a Get
// of a key in slot 3 behind three empty slots and one of a key in slot 0
// each cost one access to the bucket line and four to the key's record
// (two header loads, the key's copy and the value's).
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
	// Four keys whose first bucket is one top-level bucket fill it; with
	// the first three deleted, the fourth sits in slot 3 alone. A key of
	// another bucket sits in its slot 0.
	top := ix.tab.Load().levels[0]
	groups := map[uint64][][]byte{}
	var keys [][]byte
	var home uint64
	for v := uint64(1); keys == nil; v++ {
		k := binary.LittleEndian.AppendUint64(nil, v)
		h1, _ := hashes(k)
		home = h1 % top.buckets
		if groups[home] = append(groups[home], k); len(groups[home]) == 4 {
			keys = groups[home]
		}
	}
	var other []byte
	for v := uint64(1); other == nil; v++ {
		k := binary.LittleEndian.AppendUint64(nil, v)
		if h1, h2 := hashes(k); h1%top.buckets != home && h2%top.buckets != home {
			other = k
		}
	}
	for _, k := range append(keys, other) {
		if err := w.Insert(k, k); err != nil {
			t.Fatal(err)
		}
	}
	for _, k := range keys[:3] {
		if ok, err := w.Delete(k); !ok || err != nil {
			t.Fatalf("Delete = %v, %v", ok, err)
		}
	}
	for _, tc := range []struct {
		name string
		key  []byte
	}{{"slot 3", keys[3]}, {"slot 0", other}} {
		if got, found := getAccesses(t, w, tc.key); !found || got != 1+4 {
			t.Errorf("Get of the key in %s: found %v, %d accesses; want 5", tc.name, found, got)
		}
	}
}
