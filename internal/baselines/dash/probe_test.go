package dash

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

// A Get reads each line of a 256-byte bucket at most once: the first line
// (version, bitmap, fingerprints, slots 0-1) of the target bucket and, if
// the key is not there, of the probing bucket, and a later line only for
// the slot whose fingerprint matches, its value word included. Besides
// those it costs its directory word and the seqlock's re-check of the
// target's version. A Get of an absent key scans the two first lines, so
// a present key's Get costs that less two plus the lines it reads.
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
	// Eleven inline keys with one target bucket in one segment: the
	// balanced insert spreads ten over slots 0-4 of the target and the
	// probing bucket, the eleventh stays absent.
	depth := ix.meta.Load().depth
	groups := map[[2]uint64][][]byte{}
	var keys [][]byte
	for v := uint64(1); keys == nil; v++ {
		k := binary.LittleEndian.AppendUint64(nil, v)
		h := common.HashKey(k)
		b1, _ := targetBuckets(h)
		g := [2]uint64{hash.Prefix(h, depth), uint64(b1)}
		if groups[g] = append(groups[g], k); len(groups[g]) == 11 {
			keys = groups[g]
		}
	}
	for _, k := range keys[:10] {
		if err := w.Insert(k, k); err != nil {
			t.Fatal(err)
		}
	}
	absent, found := getAccesses(t, w, keys[10])
	if found {
		t.Fatal("the eleventh key was found")
	}
	m := ix.meta.Load()
	for _, k := range keys[:10] {
		h := common.HashKey(k)
		b1, _ := targetBuckets(h)
		b, s := w.locate(w.lookupSeg(m, h), h, k)
		lines := uint64(1)
		if b != b1 {
			lines++
		}
		if s >= 2 {
			lines++
		}
		if got, found := getAccesses(t, w, k); !found || got != absent-2+lines {
			t.Errorf("Get of the key in bucket %d slot %d: found %v, %d accesses; want %d (an absent key's %d)",
				b, s, found, got, absent-2+lines, absent)
		}
	}
}
