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

// An update that carved a record for its second attempt frees it when a
// change landing between the attempts made it unnecessary: a delete (the
// key is gone) or an update into the old value's class (the second
// attempt overwrites in place). Each scenario runs twice between spills
// of both handles' caches, as in refusedTwice: a kept block shows as a
// difference in the allocator.
func TestUpdateFreesRecordAChangeBetweenAttemptsMadeUnused(t *testing.T) {
	for _, cfg := range updateModes {
		for _, race := range []struct {
			name  string
			found bool // the raced update still finds its key
			land  func(other *Handle, key []byte) error
		}{
			{"delete", false, func(other *Handle, key []byte) error {
				_, err := other.Delete(key)
				return err
			}},
			{"same-class update", true, func(other *Handle, key []byte) error {
				_, err := other.Update(key, value(9, 72))
				return err
			}},
		} {
			t.Run(cfg.Concurrency.String()+"/"+race.name, func(t *testing.T) {
				h, al := leakIndex(t, 8<<20, cfg)
				other := h.ix.NewHandle(nil)
				// A key whose delete samples no merge, so both runs
				// leave the segments as they found them.
				key := k64(0)
				for i := uint64(1); makeReq(key).h>>32&0xF == 0; i++ {
					key = k64(i)
				}
				landed, landing := 0, false
				testHookUpdateCarved = func() {
					if landing {
						return // the landing update's own carve
					}
					landing = true
					if err := race.land(other, key); err != nil {
						t.Error(err)
					}
					landing = false
					landed++
				}
				t.Cleanup(func() { testHookUpdateCarved = nil })
				run := func() {
					if err := h.Insert(key, value(0, 24)); err != nil {
						t.Fatal(err)
					}
					found, err := h.Update(key, value(1, 72))
					if err != nil || found != race.found {
						t.Fatalf("raced update: found %v, err %v; want found %v", found, err, race.found)
					}
					if race.found {
						mustRead(t, h, key, value(1, 72))
						if _, err := h.Delete(key); err != nil {
							t.Fatal(err)
						}
					}
					h.ah.Close()
					other.ah.Close()
				}
				run()
				before := al.Stats()
				run()
				if landed != 2 {
					t.Fatalf("the change landed between the attempts %d times, want 2", landed)
				}
				if after := al.Stats(); after != before {
					t.Fatalf("a raced update kept a block: allocator %+v, then %+v", before, after)
				}
			})
		}
	}
}

// A full pool refuses only the updates that need a fresh record: a
// same-class update overwrites in place and reads back, one to an inline
// value needs nothing either, and a class-changing one fails typed and
// leaves the old value readable.
func TestFullPoolStillUpdatesInPlace(t *testing.T) {
	for _, cfg := range updateModes {
		t.Run(cfg.Concurrency.String(), func(t *testing.T) {
			h, _ := leakIndex(t, 2<<20, cfg)
			key := func(i int) []byte { return []byte(fmt.Sprintf("key-%012d", i)) }
			for i := 0; ; i++ {
				if i > 1<<20 {
					t.Fatal("pool never filled")
				}
				err := h.Insert(key(i), value(i, 24))
				if err == nil {
					continue
				}
				if !errors.Is(err, alloc.ErrOutOfMemory) {
					t.Fatal(err)
				}
				break
			}
			// Failed inserts hand their records back: take what is left of
			// both value classes too.
			for _, n := range []int{24, 72} {
				for {
					if _, _, err := h.ah.Alloc(h.c, h.recordAllocSize(n)); err != nil {
						break
					}
				}
			}
			if ok, err := h.Update(key(0), value(100, 24)); !ok || err != nil {
				t.Fatalf("same-class update on a full pool: %v, %v", ok, err)
			}
			mustRead(t, h, key(0), value(100, 24))
			if ok, err := h.Update(key(1), k64(101)); !ok || err != nil {
				t.Fatalf("update to an inline value on a full pool: %v, %v", ok, err)
			}
			mustRead(t, h, key(1), k64(101))
			if _, err := h.Update(key(2), value(102, 72)); !errors.Is(err, alloc.ErrOutOfMemory) {
				t.Fatalf("class-changing update on a full pool: %v, want %v", err, alloc.ErrOutOfMemory)
			}
			mustRead(t, h, key(2), value(2, 24))
		})
	}
}
