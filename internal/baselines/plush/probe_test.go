package plush

import (
	"encoding/binary"
	"testing"

	"spash/internal/alloc"
	"spash/internal/baselines/common"
	"spash/internal/pmem"
)

// A Get reads the line of its bucket in each level it visits once, the
// matching slot's value word included: a key found in level i costs i+1
// accesses, whichever slot of its bucket holds it.
func TestGetEntersItsBucketLineOnce(t *testing.T) {
	pool := pmem.New(pmem.Config{PoolSize: 256 << 20, CacheSize: 1 << 20})
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
	// A buffer's worth of inline keys of partition 0: the last insert
	// flushes them all into the levels.
	var keys [][]byte
	for v := uint64(1); len(keys) < bufCap; v++ {
		if k := binary.LittleEndian.AppendUint64(nil, v); partOf(common.HashKey(k)) == 0 {
			keys = append(keys, k)
		}
	}
	for _, k := range keys {
		if err := w.Insert(k, k); err != nil {
			t.Fatal(err)
		}
	}
	p := &ix.parts[0]
	if len(p.buf) != 0 {
		t.Fatalf("%d keys still buffered", len(p.buf))
	}
	slots := map[int]int{}
	for _, k := range keys {
		kw := common.MakeWord(true, binary.LittleEndian.Uint64(k))
		h := common.HashKey(k)
		level, slot := -1, -1
		for li, l := range p.levels {
			for s := 0; s < slotsPerBucket && level < 0; s++ {
				if pool.Load64(c, slotAddr(l, h%l.buckets, s)) == kw {
					level, slot = li, s
				}
			}
		}
		slots[slot]++
		before := w.c.Stats()
		_, found, err := w.Search(k, nil)
		d := w.c.Stats().Sub(before)
		if got := d.CacheHits + d.CacheMisses; err != nil || !found || got != uint64(level+1) {
			t.Fatalf("Get of the key in level %d slot %d: found %v, %v, %d accesses; want %d", level, slot, found, err, got, level+1)
		}
	}
	if slots[3] == 0 {
		t.Fatalf("no key in slot 3 of its bucket (%v)", slots)
	}
}
