//go:build !race

package core

import (
	"fmt"
	"runtime"
	"runtime/debug"
	"testing"
	"time"

	"spash/internal/pmem"
)

// The write path's structural operations stay off the Go heap. (Not
// measurable under -race, where sync.Pool drops transaction descriptors
// at random.)

// allocTestKeys are the key shapes the write path treats differently:
// inline in the slot, a 16 B record, a 64 B record.
var allocTestKeys = []struct {
	name string
	key  func(dst []byte, id uint64) []byte
}{
	{"inline", func(dst []byte, id uint64) []byte { return append(dst[:0], k64(id)...) }},
	{"16B", func(dst []byte, id uint64) []byte { return fmt.Appendf(dst[:0], "key-%012d", id) }},
	{"64B", func(dst []byte, id uint64) []byte { return fmt.Appendf(dst[:0], "%064d", id) }},
}

// allocsWithGCOff is testing.AllocsPerRun(1, f) with the collector held
// off for both runs of f. A cycle in the window empties htm's descriptor
// pool, and the fresh descriptor's write set then grows on the heap the
// first time a merge or split needs more than its initial capacity: an
// allocation of the collector's making, not the write path's. A cycle
// that started just before leaves the runtime work it starts on goroutines
// of its own — the unique package's map cleanup, finalizers — which
// allocates, and on a loaded host that work was seen to land in the
// measured run (runtime.MemProfile put one such allocation in
// unique.registerCleanup). So a cycle is run to its end first, and those
// goroutines get the processors for a moment before the window opens.
func allocsWithGCOff(f func()) float64 {
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	runtime.GC()
	time.Sleep(10 * time.Millisecond)
	return testing.AllocsPerRun(1, f)
}

// prewarmFreeLists grows the allocator's per-class free lists (Go slices
// that only ever grow) to hold n blocks of size bytes, so a measured
// window's frees find their capacity in place.
func prewarmFreeLists(t *testing.T, h *Handle, size, n int) {
	t.Helper()
	ah := h.ix.alloc.NewHandle()
	blocks := make([]uint64, n)
	for i := range blocks {
		addr, _, err := ah.Alloc(h.c, size)
		if err != nil {
			t.Fatal(err)
		}
		blocks[i] = addr
	}
	for _, b := range blocks {
		ah.Free(h.c, b, size)
	}
	ah.Close()
}

// An insert window with at least 200 splits and no doubling allocates
// nothing: the decode, both relayouts, the snapshot and errNeedSplit all
// stay off the heap.
func TestInsertWindowWithSplitsDoesNotAllocate(t *testing.T) {
	const preload, window = 60000, 3000
	for _, kt := range allocTestKeys {
		t.Run(kt.name, func(t *testing.T) {
			_, h := newTestIndex(t, Config{})
			var key []byte
			val := make([]byte, 64)
			// ids holds every key's bytes up front: fmt boxes its operands.
			ids := make([][]byte, preload+2*window)
			for i := range ids {
				ids[i] = append([]byte(nil), kt.key(key, uint64(i))...)
			}
			next := 0
			insert := func(n int) {
				for end := next + n; next < end; next++ {
					if err := h.Insert(ids[next], val); err != nil {
						t.Fatal(err)
					}
				}
			}
			insert(preload)
			// AllocsPerRun runs the window twice: once to warm up, once
			// measured.
			before := h.ix.Stats()
			n := allocsWithGCOff(func() { insert(window) })
			after := h.ix.Stats()
			if after.Doubles != before.Doubles {
				t.Fatalf("the windows crossed %d doublings; move the preload", after.Doubles-before.Doubles)
			}
			if splits := after.Splits - before.Splits; splits < 2*200 {
				t.Fatalf("two windows made %d splits, want at least 200 each", splits)
			}
			if n != 0 {
				t.Errorf("%d inserts with ~%d splits: %v allocs, want 0", window, (after.Splits-before.Splits)/2, n)
			}
		})
	}
}

// A delete window whose sampled TryMerge calls run — some merging, some
// declining — allocates nothing either.
func TestDeleteWindowWithMergesDoesNotAllocate(t *testing.T) {
	const records, drained, window = 60000, 40000, 6000
	for _, kt := range allocTestKeys {
		t.Run(kt.name, func(t *testing.T) {
			_, h := newTestIndex(t, Config{})
			// The classes of a 16 B key's record, of a 64 B key's or
			// value's, and of a segment.
			for _, size := range []int{32, 128, SegmentSize} {
				prewarmFreeLists(t, h, size, records)
			}
			val := make([]byte, 64)
			ids := make([][]byte, records)
			for i := range ids {
				ids[i] = append([]byte(nil), kt.key(nil, uint64(i))...)
				if err := h.Insert(ids[i], val); err != nil {
					t.Fatal(err)
				}
			}
			next := 0
			remove := func(n int) {
				for end := next + n; next < end; next++ {
					if ok, err := h.Delete(ids[next]); !ok || err != nil {
						t.Fatalf("Delete(%q) = %v, %v", ids[next], ok, err)
					}
				}
			}
			remove(drained) // merges need buddies that are nearly empty
			before := h.ix.Stats()
			n := allocsWithGCOff(func() { remove(window) })
			after := h.ix.Stats()
			merges := after.Merges - before.Merges
			// One delete in 16 tries a merge; the window must have seen
			// both outcomes.
			if tried := int64(2 * window / 16); merges < 20 || merges > tried-20 {
				t.Fatalf("two windows merged %d times of about %d tries; want both outcomes", merges, tried)
			}
			if n != 0 {
				t.Errorf("%d deletes with ~%d merges: %v allocs, want 0", window, merges/2, n)
			}
		})
	}
}

// With checksums on, a Get of a 64 B out-of-line value and its in-place
// Update allocate nothing, and the Get reads the value record once: it
// accesses exactly the lines the same Get with checksums off does plus
// the seal check's (the seal word and the segment's lines).
func TestChecksummedGetAndUpdateDoNotAllocate(t *testing.T) {
	key, val := k64(7), make([]byte, 64)
	lines := map[bool]uint64{}
	for _, checksums := range []bool{false, true} {
		_, h := newTestIndex(t, Config{Checksums: checksums})
		if err := h.Insert(key, val); err != nil {
			t.Fatal(err)
		}
		buf := make([]byte, 0, len(val))
		before := h.c.Stats()
		if _, ok, err := h.Search(key, buf); !ok || err != nil {
			t.Fatalf("Search = %v, %v", ok, err)
		}
		d := h.c.Stats().Sub(before)
		lines[checksums] = d.CacheHits + d.CacheMisses
		if !checksums {
			continue
		}
		if n := testing.AllocsPerRun(100, func() { h.Search(key, buf) }); n != 0 {
			t.Errorf("checksummed Get: %v allocs, want 0", n)
		}
		if n := testing.AllocsPerRun(100, func() { h.Update(key, val) }); n != 0 {
			t.Errorf("checksummed in-place Update: %v allocs, want 0", n)
		}
	}
	if got, want := lines[true]-lines[false], uint64(1+SegmentSize/pmem.CachelineSize); got != want {
		t.Errorf("checksummed Get accessed %d lines more than the plain one, want %d (the seal check alone)", got, want)
	}
}
