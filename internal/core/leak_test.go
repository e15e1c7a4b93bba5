package core

import (
	"errors"
	"fmt"
	"testing"

	"spash/internal/alloc"
	"spash/internal/pmem"
)

// leakIndex is an index on a pool of the given size, with its allocator.
func leakIndex(t *testing.T, poolSize uint64, cfg Config) (*Handle, *alloc.Allocator) {
	t.Helper()
	pool := pmem.New(pmem.Config{PoolSize: poolSize, CacheSize: 64 << 10})
	c := pool.NewCtx()
	al, err := alloc.New(c, pool)
	if err != nil {
		t.Fatal(err)
	}
	ix, err := Open(c, pool, al, cfg)
	if err != nil {
		t.Fatal(err)
	}
	return ix.NewHandle(c), al
}

// refusedTwice runs op and, if it fails, runs it again between two spills
// of the handle's allocation cache, reporting the second error and
// whether the allocator came out of that attempt other than it went in.
// An operation that fails must hand back the records it carved before its
// atomic section; the first attempt may have had to carve them from an
// arena, the second finds them on the free lists, so any difference is a
// block kept. (True of records up to 128 B, which the tests use: a larger
// class tops every refill up from its arena, which would hide one.)
func refusedTwice(h *Handle, al *alloc.Allocator, op func() error) (err error, kept bool) {
	if err = op(); err == nil {
		return nil, false
	}
	h.ah.Close()
	before := al.Stats()
	err = op()
	h.ah.Close()
	return err, al.Stats() != before
}

// Inserts that fail because the pool cannot supply the split's segment
// return their pre-allocated key and value records.
func TestFailedInsertOnFullPoolFreesItsRecords(t *testing.T) {
	h, al := leakIndex(t, 2<<20, Config{InitialDepth: 2})
	val := make([]byte, 64)
	failures := 0
	for i := 0; failures < 20; i++ {
		if i > 1<<20 {
			t.Fatalf("pool never filled: %d failures after %d inserts", failures, i)
		}
		key := []byte(fmt.Sprintf("key-%012d", i))
		err, kept := refusedTwice(h, al, func() error { return h.Insert(key, val) })
		if err == nil {
			continue
		}
		if !errors.Is(err, alloc.ErrOutOfMemory) {
			t.Fatal(err)
		}
		failures++
		if kept {
			t.Fatalf("insert %d failed with %v and kept its pre-allocated records", i, err)
		}
	}
}

// With checksums on, an insert or update refused because the segment's
// seal is damaged returns its pre-allocated records too.
func TestRefusedWriteOnDamagedSealFreesItsRecords(t *testing.T) {
	h, al := leakIndex(t, 8<<20, Config{InitialDepth: 2, Checksums: true})
	val := make([]byte, 64)
	key := func(i int) []byte { return []byte(fmt.Sprintf("key-%012d", i)) }
	for i := 0; i < 500; i++ {
		if err := h.Insert(key(i), val); err != nil {
			t.Fatal(err)
		}
	}
	for _, seg := range h.ix.SegmentAddrs(h.c) {
		a := h.ix.sealAddrOf(seg)
		h.ix.pool.Store64(h.c, a, ^h.ix.pool.Load64(h.c, a))
	}
	for i := 490; i < 510; i++ { // present keys and new ones
		for name, op := range map[string]func() error{
			"Insert": func() error { return h.Insert(key(i), val) },
			"Update": func() error { _, err := h.Update(key(i), val); return err },
		} {
			err, kept := refusedTwice(h, al, op)
			if !errors.Is(err, ErrCorrupted) {
				t.Fatalf("%s(%d) on a damaged seal: %v, want a corruption error", name, i, err)
			}
			if kept {
				t.Fatalf("%s(%d) was refused with %v and kept its pre-allocated records", name, i, err)
			}
		}
	}
}
