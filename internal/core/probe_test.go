package core

import (
	"testing"

	"spash/internal/htm"
	"spash/internal/pmem"
)

// collidingKeys returns n inline keys that share a segment and a main
// bucket of ix, in the order the search found them.
func collidingKeys(ix *Index, n int) [][]byte {
	groups := map[[2]uint64][][]byte{}
	for v := uint64(1); ; v++ {
		k := k64(v)
		r := makeReq(k)
		_, e := ix.resolveRaw(r.h)
		g := [2]uint64{entrySeg(e), uint64(mainBucket(r.h))}
		if groups[g] = append(groups[g], k); len(groups[g]) == n {
			return groups[g]
		}
	}
}

// accesses returns the cache accesses (hits and misses) c made in fn.
func accesses(c *pmem.Ctx, fn func()) uint64 {
	before := c.Stats()
	fn()
	d := c.Stats().Sub(before)
	return d.CacheHits + d.CacheMisses
}

// The probe reads its main bucket's cacheline once: a Get of an inline
// key with an inline value makes one cache access, to that line, whether
// the key sits in main slot 0, 1, 2 or 3 or is absent (four key words
// and four hints compared), and one more, to the overflow bucket's line,
// when the key sits behind a hint. An insert's free-slot search reuses
// the probe's line: an insert into a main bucket with room makes the
// probe's access and the commit's, and one whose main bucket is full adds
// one access per overflow bucket it reads and one for the hint's line at
// commit. The same holds for locate in every section flavour.
func TestProbeReadsItsBucketOnce(t *testing.T) {
	ix, h := newTestIndex(t, Config{})
	keys := collidingKeys(ix, 16)
	hinted := makeReq(keys[4])
	var absent []byte
	for _, k := range keys[5:] {
		if r := makeReq(k); r.ofp != hinted.ofp {
			absent = k
			break
		}
	}
	insert := func(k []byte, want uint64) {
		t.Helper()
		if got := accesses(h.c, func() {
			if err := h.Insert(k, k64(7)); err != nil {
				t.Fatal(err)
			}
		}); got != want {
			t.Errorf("Insert %x: %d accesses, want %d", k, got, want)
		}
	}
	for _, k := range keys[:4] {
		insert(k, 2) // probe, commit
	}
	insert(keys[4], 4) // probe, one overflow bucket, commit's two lines
	r := makeReq(keys[4])
	_, e := ix.resolveRaw(r.h)
	seg := entrySeg(e)
	if idx, _, _, _, _ := ix.locate(h.raw, h.c, seg, &r, false); idx < 0 || bucketOf(idx) == mainBucket(r.h) {
		t.Fatalf("fifth key at slot %d, want an overflow bucket", idx)
	}

	for _, tc := range []struct {
		name  string
		key   []byte
		found bool
		want  uint64
	}{
		{"slot 0", keys[0], true, 1},
		{"slot 1", keys[1], true, 1},
		{"slot 2", keys[2], true, 1},
		{"slot 3", keys[3], true, 1},
		{"behind a hint", keys[4], true, 2},
		{"absent", absent, false, 1},
	} {
		var found bool
		got := accesses(h.c, func() {
			var err error
			if _, found, err = h.Search(tc.key, nil); err != nil {
				t.Fatal(err)
			}
		})
		if found != tc.found || got != tc.want {
			t.Errorf("Get of the key %s: found %v, %d accesses; want %v, %d", tc.name, found, got, tc.found, tc.want)
		}
		r := makeReq(tc.key)
		for _, f := range sectionFlavours {
			var n uint64
			probe := func(m mem) {
				n = accesses(h.c, func() { ix.locate(m, h.c, seg, &r, false) })
			}
			switch f {
			case "raw":
				probe(h.raw)
			case "tx":
				ix.tm.Run(h.c, ix.pool, func(tx *htm.Txn) error { probe(txMem{tx}); return nil })
			case "irrevocable":
				ix.tm.Irrevocable(h.c, ix.pool, func(it *htm.ITxn) error { probe(iMem{it}); return nil })
			}
			if n != tc.want {
				t.Errorf("%s probe for the key %s: %d accesses, want %d", f, tc.name, n, tc.want)
			}
		}
	}

	// With the main bucket full, findFree reads the one overflow bucket it
	// needs (the next, which holds the hinted key and has room) once.
	r = makeReq(absent)
	var free uint64
	var ok bool
	total := accesses(h.c, func() {
		_, _, _, _, main := ix.locate(h.raw, h.c, seg, &r, false)
		free = accesses(h.c, func() { _, ok = findFree(h.raw, seg, r.h, &main) })
	})
	if !ok || free != 1 || total != 2 {
		t.Errorf("probe and findFree in a full main bucket: ok %v, %d accesses, %d of them findFree's; want 2, 1", ok, total, free)
	}
}
