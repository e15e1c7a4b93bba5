package core

import (
	"bytes"
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"spash/internal/pmem"
)

// TestScrubRepairsUnderLoad runs the online scrubber against live
// insert/delete traffic, injects a bit flip into a quiet segment, and
// requires the scrubber to find and quarantine it without the writers
// ever observing a silently wrong value.
func TestScrubRepairsUnderLoad(t *testing.T) {
	ix, h := newTestIndex(t, Config{InitialDepth: 4, Checksums: true})
	c := h.c

	// Static population (never churned) — the corruption target lives
	// here.
	const n = 1500
	fillIntegrity(t, h, n)

	var stopWriters atomic.Bool
	var wg sync.WaitGroup
	for g := 0; g < 2; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			wh := ix.NewHandle(nil)
			defer wh.Close()
			for i := 0; !stopWriters.Load(); i++ {
				key := []byte(fmt.Sprintf("churn-%d-%06d", g, i%400))
				// Operations racing the quarantined segment may fail
				// typed; that is the contract — never a wrong answer.
				if err := wh.Insert(key, k64(uint64(i))); err != nil && !errors.Is(err, ErrCorrupted) {
					t.Errorf("writer %d insert: %v", g, err)
					return
				}
				if i%3 == 0 {
					if _, err := wh.Delete(key); err != nil && !errors.Is(err, ErrCorrupted) {
						t.Errorf("writer %d delete: %v", g, err)
						return
					}
				}
			}
		}(g)
	}

	s := ix.StartScrub(ScrubOptions{Repair: true, Pause: time.Millisecond})

	// Flip a value-word bit in the segment owning a static key. (A
	// value-word flip keeps occupancy information intact, so the live-
	// entry counter stays exact through the online quarantine.)
	victim := integrityKey(4) // inline key, static range
	r := makeReq(victim)
	_, e := ix.resolveRaw(r.h)
	seg := entrySeg(e)
	idx, _, _, _, _ := ix.locate(rawMem{ix.pool, c}, c, seg, &r, false)
	if idx < 0 {
		t.Fatal("victim key not in its segment")
	}
	va := slotAddr(seg, idx) + 8
	ix.pool.Store64(c, va, ix.pool.Load64(c, va)^1)

	// The scrubber must quarantine the segment: the victim's bucket is
	// dropped, so its key transitions corrupt → not-found.
	deadline := time.Now().Add(10 * time.Second)
	for {
		_, found, err := h.Search(victim, nil)
		if err == nil && !found {
			break
		}
		if err != nil && !errors.Is(err, ErrCorrupted) {
			t.Fatalf("Search during scrub: %v", err)
		}
		if time.Now().After(deadline) {
			t.Fatal("scrubber did not repair the flipped segment in time")
		}
		time.Sleep(time.Millisecond)
	}

	stopWriters.Store(true)
	wg.Wait()
	stats := s.Stop()
	if stats.Corruptions < 1 || stats.Quarantines < 1 {
		t.Fatalf("scrub stats %+v: expected at least one corruption and quarantine", stats)
	}
	if stats.Segments == 0 || stats.Passes == 0 {
		t.Fatalf("scrub stats %+v: no verification work recorded", stats)
	}

	if err := ix.CheckInvariants(c); err != nil {
		t.Fatalf("invariants after online repair: %v", err)
	}
	// No silent wrong values anywhere in the static range.
	for i := 0; i < n; i++ {
		got, found, err := h.Search(integrityKey(i), nil)
		if err != nil {
			t.Fatalf("post-scrub Search(%d): %v", i, err)
		}
		if found && !bytes.Equal(got, integrityVal(i)) {
			t.Fatalf("key %d: silent wrong value after scrub repair", i)
		}
	}
}

// TestScrubCleanPoolFindsNothing: a healthy index scrubs clean and the
// scrubber terminates by pass count.
func TestScrubCleanPoolFindsNothing(t *testing.T) {
	ix, h := newTestIndex(t, Config{InitialDepth: 2, Checksums: true})
	fillIntegrity(t, h, 600)
	s := ix.StartScrub(ScrubOptions{Passes: 2, Repair: true})
	s.Wait()
	stats := s.Stop()
	if stats.Corruptions != 0 || stats.Quarantines != 0 {
		t.Fatalf("healthy pool scrub found: %+v", stats)
	}
	if stats.Passes != 2 {
		t.Fatalf("scrub ran %d passes, want 2", stats.Passes)
	}
	if err := ix.CheckInvariants(h.c); err != nil {
		t.Fatal(err)
	}
}

// TestScrubDetectsWithoutChecksums: with seals off the scrubber still
// finds poisoned media (reads machine-check) and repairs it.
func TestScrubDetectsPoisonWithoutChecksums(t *testing.T) {
	ix, h := newTestIndex(t, Config{InitialDepth: 2})
	fillIntegrity(t, h, 400)
	segs := ix.SegmentAddrs(h.c)
	ix.pool.PoisonLine(segs[0])
	s := ix.StartScrub(ScrubOptions{Repair: true, Pause: time.Millisecond})
	deadline := time.Now().Add(10 * time.Second)
	for ix.pool.PoisonedLines() != 0 {
		if time.Now().After(deadline) {
			s.Stop()
			t.Fatal("scrubber did not heal the poisoned segment")
		}
		time.Sleep(time.Millisecond)
	}
	stats := s.Stop()
	if stats.Corruptions < 1 || stats.Quarantines < 1 {
		t.Fatalf("scrub stats %+v", stats)
	}
	if err := ix.CheckInvariants(h.c); err != nil {
		t.Fatal(err)
	}
}

// TestScrubStopEndsTheRegistryWalk: a stopped scrubber reads at most
// registryStopEvery more registry words of its pass, however many words
// lie before the next live segment (the frames of the 4 MB registry
// itself are some 16 000 words that name none), and the other walks,
// which pass no stop, read every word.
func TestScrubStopEndsTheRegistryWalk(t *testing.T) {
	ix, h := newTestIndex(t, Config{InitialDepth: 2})
	s := &Scrubber{ix: ix, h: ix.NewHandle(nil), stop: make(chan struct{})}
	defer s.h.Close()
	close(s.stop)
	reads := func(c *pmem.Ctx, f func()) uint64 {
		before := c.Stats()
		f()
		after := c.Stats()
		return after.CacheHits + after.CacheMisses - before.CacheHits - before.CacheMisses
	}
	if n := reads(s.h.c, func() { s.scanPass() }); n > registryStopEvery {
		t.Errorf("a stopped pass read %d registry words, want at most %d", n, registryStopEvery)
	}
	if n := reads(h.c, func() { ix.SegmentAddrs(h.c) }); n != ix.registryCap {
		t.Errorf("SegmentAddrs read %d registry words, want all %d", n, ix.registryCap)
	}
}
