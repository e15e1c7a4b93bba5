package core

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"spash/internal/alloc"
	"spash/internal/hash"
	"spash/internal/htm"
	"spash/internal/pmem"
)

// Concurrent disjoint inserts followed by a full verification: no lost
// inserts, no duplicates, across all concurrency modes.
func TestConcurrentDisjointInserts(t *testing.T) {
	for _, mode := range []ConcurrencyMode{ModeHTM, ModeWriteLock, ModeRWLock} {
		t.Run(mode.String(), func(t *testing.T) {
			ix, h0 := newTestIndex(t, Config{Concurrency: mode, InitialDepth: 2, LockStripeBits: 4})
			const workers, per = 8, 3000
			hist := insertDisjoint(t, ix, workers, per)
			if got := ix.Len(); got != workers*per {
				t.Fatalf("len = %d, want %d", got, workers*per)
			}
			for i := range hist {
				if !holds(h0, uint64(i)) {
					t.Fatalf("key %d: %s", i, missReport(ix, h0, uint64(i), hist[i]))
				}
			}
		})
	}
}

// TestInsertsAcrossDoublings has 32 workers, on as many threads (more
// than the host has CPUs), insert disjoint keys into HTM indexes that
// start at depth 1 and double ten times, and requires every acknowledged
// insert to read back. Preemption inside a fallback path while the
// directory doubles is what lost inserts here; with both of those paths
// mended (TestSplitFallbackBehindADoublingCopy,
// TestFallbackResolveWaitsOutACopyInFlight) no round may lose one. Before
// the fixes 7 rounds in 6 000 did, so one run is a smoke test: CI runs it
// with -count=130, which catches that rate 95 % of the time. On a loss it
// logs missReport for the first key missed.
func TestInsertsAcrossDoublings(t *testing.T) {
	const workers, per, rounds = 32, 250, 20
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(workers))
	for r := 0; r < rounds; r++ {
		ix, h0 := newTestIndex(t, Config{InitialDepth: 1})
		hist := insertDisjoint(t, ix, workers, per)
		lost := 0
		for i := range hist {
			if holds(h0, uint64(i)) {
				continue
			}
			if lost++; lost == 1 {
				t.Logf("round %d, key %d: %s", r, i, missReport(ix, h0, uint64(i), hist[i]))
			}
		}
		if lost > 0 {
			t.Errorf("round %d lost %d of %d acknowledged inserts", r, lost, len(hist))
		}
	}
}

// insertRecord is what a worker saw of its key's directory entry right
// after the insert was acknowledged: segment, local depth and directory
// generation (odd while a resize runs).
type insertRecord struct {
	seg   uint64
	depth uint
	gen   uint64
}

// insertDisjoint has workers insert keys w*per+i, each with twice the
// key as value, and returns per key what its worker saw on return.
func insertDisjoint(t *testing.T, ix *Index, workers, per int) []insertRecord {
	hist := make([]insertRecord, workers*per)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			h := ix.NewHandle(nil)
			defer h.Close()
			for i := 0; i < per; i++ {
				key := uint64(w*per + i)
				if err := h.Insert(k64(key), k64(key*2)); err != nil {
					t.Error(err)
					return
				}
				_, e := ix.resolveRaw(makeReq(k64(key)).h)
				hist[key] = insertRecord{entrySeg(e), entryDepth(e), atomic.LoadUint64(&ix.dirGen)}
			}
		}(w)
	}
	wg.Wait()
	return hist
}

// holds reports whether key reads back the value insertDisjoint gave it.
func holds(h *Handle, key uint64) bool {
	v, ok, err := h.Search(k64(key), nil)
	return err == nil && ok && binary.LittleEndian.Uint64(v) == key*2
}

// missReport says what the index looks like around a key a search
// missed: whether the invariant scan passes, whether ForEach still
// visits the key, the key's directory entry and depths, what the
// inserting worker saw when the insert returned (and what the registry
// now says of that segment), and how many splits, fallbacks and
// doublings the index ran.
func missReport(ix *Index, h *Handle, key uint64, at insertRecord) string {
	k := k64(key)
	_, ok, serr := h.Search(k, nil)
	visited := false
	ferr := ix.ForEach(h, func(fk, _ []byte) bool {
		visited = bytes.Equal(fk, k)
		return !visited
	})
	d := ix.dir.Load()
	idx := d.index(hashKey(k))
	e := atomic.LoadUint64(&d.entries[idx])
	re := ix.pool.Load64(h.c, ix.regAddrOf(at.seg))
	st := ix.Stats()
	return fmt.Sprintf("found %v (err %v); CheckInvariants: %v; ForEach visits it: %v (err %v); directory entry %d of %d (global depth %d) = %#x: segment %#x, local depth %d, locked %v; "+
		"acknowledged against segment %#x, local depth %d, directory generation %d (now %d), whose registry word now reads prefix %#x depth %d valid %v; "+
		"%d splits, %d fallbacks, %d doublings, %d collaborative stages",
		ok, serr, ix.CheckInvariants(h.c), visited, ferr, idx, len(d.entries), d.depth, e, entrySeg(e), entryDepth(e), entryLocked(e),
		at.seg, at.depth, at.gen, atomic.LoadUint64(&ix.dirGen), regPrefix(re), regDepth(re), re&regValid != 0,
		st.Splits, st.Fallbacks, st.Doubles, st.CollabStages)
}

// Concurrent updates of a single hot key: the final value must be one
// of the written values and reads must never observe a torn mix
// (values are out-of-line multi-word records, so atomicity is real).
func TestConcurrentHotKeyUpdates(t *testing.T) {
	for _, mode := range []ConcurrencyMode{ModeHTM, ModeWriteLock, ModeRWLock} {
		t.Run(mode.String(), func(t *testing.T) {
			ix, h0 := newTestIndex(t, Config{Concurrency: mode, LockStripeBits: 4})
			key := []byte("the-one-hot-key!")
			mkval := func(tag byte) []byte {
				v := make([]byte, 256)
				for i := range v {
					v[i] = tag
				}
				return v
			}
			if err := h0.Insert(key, mkval(0)); err != nil {
				t.Fatal(err)
			}
			const writers, readers, iters = 4, 3, 1500
			var wwg, rwg sync.WaitGroup
			stop := make(chan struct{})
			for w := 0; w < writers; w++ {
				wwg.Add(1)
				go func(w int) {
					defer wwg.Done()
					h := ix.NewHandle(nil)
					defer h.Close()
					for i := 0; i < iters; i++ {
						if found, err := h.Update(key, mkval(byte(w+1))); err != nil || !found {
							t.Errorf("update: found=%v err=%v", found, err)
							return
						}
					}
				}(w)
			}
			for rd := 0; rd < readers; rd++ {
				rwg.Add(1)
				go func() {
					defer rwg.Done()
					h := ix.NewHandle(nil)
					defer h.Close()
					buf := make([]byte, 0, 256)
					for {
						select {
						case <-stop:
							return
						default:
						}
						v, ok, err := h.Search(key, buf[:0])
						if err != nil || !ok {
							t.Errorf("search: ok=%v err=%v", ok, err)
							return
						}
						if len(v) != 256 {
							t.Errorf("torn read: %d bytes", len(v))
							return
						}
						for i := 1; i < len(v); i++ {
							if v[i] != v[0] {
								t.Errorf("torn read: mixed tags %d/%d", v[0], v[i])
								return
							}
						}
					}
				}()
			}
			wwg.Wait()
			close(stop)
			rwg.Wait()
		})
	}
}

// Mixed concurrent workload over a shared key space with per-worker
// verification of the worker's own last write (monotonic tags).
func TestConcurrentMixedWorkload(t *testing.T) {
	ix, _ := newTestIndex(t, Config{InitialDepth: 2})
	const workers, keys, iters = 6, 500, 4000
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			h := ix.NewHandle(nil)
			defer h.Close()
			rng := uint64(w)*2654435761 + 1
			for i := 0; i < iters; i++ {
				rng = rng*6364136223846793005 + 1442695040888963407
				key := k64(rng % keys)
				switch rng >> 60 & 3 {
				case 0:
					if err := h.Insert(key, k64(rng)); err != nil {
						t.Error(err)
						return
					}
				case 1:
					if _, err := h.Update(key, k64(rng)); err != nil {
						t.Error(err)
						return
					}
				case 2:
					if _, err := h.Delete(key); err != nil {
						t.Error(err)
						return
					}
				default:
					if _, _, err := h.Search(key, nil); err != nil {
						t.Error(err)
						return
					}
				}
			}
		}(w)
	}
	wg.Wait()
	// The index must still be internally consistent: every present
	// key is findable and Len matches a full enumeration via deletes.
	h := ix.NewHandle(nil)
	defer h.Close()
	count := 0
	for i := uint64(0); i < keys; i++ {
		if _, ok, err := h.Search(k64(i), nil); err != nil {
			t.Fatal(err)
		} else if ok {
			count++
		}
	}
	if count != ix.Len() {
		t.Fatalf("enumerated %d keys, Len() = %d", count, ix.Len())
	}
}

// Concurrent inserts that force splits and directory doublings while
// readers run: exercises collaborative staged doubling.
func TestConcurrentGrowthWithDoubling(t *testing.T) {
	ix, _ := newTestIndex(t, Config{InitialDepth: 1})
	const workers, per = 8, 4000
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			h := ix.NewHandle(nil)
			defer h.Close()
			for i := 0; i < per; i++ {
				key := uint64(w*per + i)
				if err := h.Insert(k64(key), k64(key)); err != nil {
					t.Error(err)
					return
				}
				// Interleave reads of already-inserted keys.
				if i%7 == 0 && i > 0 {
					back := uint64(w*per + i/2)
					if _, ok, err := h.Search(k64(back), nil); err != nil || !ok {
						t.Errorf("readback %d: ok=%v err=%v", back, ok, err)
						return
					}
				}
			}
		}(w)
	}
	wg.Wait()
	st := ix.Stats()
	if st.Doubles == 0 {
		t.Fatal("no doubling happened")
	}
	if st.Entries != workers*per {
		t.Fatalf("entries = %d, want %d", st.Entries, workers*per)
	}
	h := ix.NewHandle(nil)
	defer h.Close()
	for i := uint64(0); i < workers*per; i++ {
		if _, ok, _ := h.Search(k64(i), nil); !ok {
			t.Fatalf("key %d lost", i)
		}
	}
}

// Force the fallback-lock path with a tiny retry budget and heavy
// contention; correctness must hold and fallbacks must be taken.
func TestFallbackPathUnderContention(t *testing.T) {
	pool := pmem.New(pmem.Config{PoolSize: 64 << 20})
	c := pool.NewCtx()
	al, err := alloc.New(c, pool)
	if err != nil {
		t.Fatal(err)
	}
	ix, err := Open(c, pool, al, Config{MaxTxRetries: 1, InitialDepth: 1})
	if err != nil {
		t.Fatal(err)
	}
	const workers, iters = 8, 2000
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			h := ix.NewHandle(nil)
			defer h.Close()
			for i := 0; i < iters; i++ {
				key := uint64(i % 50) // heavy contention on few keys
				if err := h.Insert(k64(key), k64(uint64(w))); err != nil {
					t.Error(err)
					return
				}
			}
		}(w)
	}
	wg.Wait()
	if ix.Len() != 50 {
		t.Fatalf("len = %d, want 50", ix.Len())
	}
	h := ix.NewHandle(nil)
	for i := uint64(0); i < 50; i++ {
		if _, ok, _ := h.Search(k64(i), nil); !ok {
			t.Fatalf("key %d missing", i)
		}
	}
}

func TestConcurrentDeleteInsertChurn(t *testing.T) {
	ix, _ := newTestIndex(t, Config{InitialDepth: 2})
	const workers, keysPerWorker, rounds = 6, 300, 10
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			h := ix.NewHandle(nil)
			defer h.Close()
			base := uint64(w * keysPerWorker)
			for r := 0; r < rounds; r++ {
				for i := uint64(0); i < keysPerWorker; i++ {
					if err := h.Insert(k64(base+i), k64(uint64(r))); err != nil {
						t.Error(err)
						return
					}
				}
				for i := uint64(0); i < keysPerWorker; i++ {
					if ok, err := h.Delete(k64(base + i)); err != nil || !ok {
						t.Errorf("round %d delete %d: ok=%v err=%v", r, base+i, ok, err)
						return
					}
				}
			}
		}(w)
	}
	wg.Wait()
	if ix.Len() != 0 {
		t.Fatalf("len = %d after churn, want 0", ix.Len())
	}
}

var _ = alloc.ClassSize // keep import when tests shrink

// With line-granular HTM tracking an irrevocable body holds the stripe
// of every line it touches — for the fallback paths that includes the
// directory line carrying the very lock bits they took with bumping
// stores. A bumping store issued from inside such a body would spin on
// the body's own stripe forever, so every lock/unlock must sit outside
// it. The directory here never outgrows one line (8 entries), which
// makes any offender hang at once; all three irrevocable call sites
// run.
func TestFallbackBodiesNeverBumpTheirOwnLines(t *testing.T) {
	ix, h := newTestIndex(t, Config{InitialDepth: 2, Checksums: true})
	const keys = 12
	run := func() error {
		for i := uint64(0); i < keys; i++ {
			if err := h.Insert(k64(i), k64(i)); err != nil {
				return err
			}
		}
		// Operations on the per-segment lock path ...
		for i := uint64(0); i < keys; i++ {
			r := makeReq(k64(i))
			err := h.execFallback(&r, func(m mem, seg uint64) error {
				m.store(seg, m.load(seg))
				return nil
			})
			if err != nil {
				return fmt.Errorf("execFallback: %w", err)
			}
		}
		// ... a split under the covering entries' locks (after the
		// doubling it needs first) ...
		if err := ix.splitFallback(h, makeReq(k64(0)).h); err != nil {
			return fmt.Errorf("splitFallback: %w", err)
		}
		// ... and a quarantine rebuild.
		if _, err := h.Quarantine(makeReq(k64(1)).h, 0); err != nil {
			return fmt.Errorf("Quarantine: %w", err)
		}
		return nil
	}
	done := make(chan error, 1)
	go func() { done <- run() }()
	select {
	case err := <-done:
		if err != nil {
			t.Fatal(err)
		}
	case <-time.After(30 * time.Second):
		t.Fatal("a fallback path deadlocked on a stripe its own irrevocable body holds")
	}
	if n := len(ix.dir.Load().entries); n > entriesPerPartition {
		t.Fatalf("directory grew to %d entries; the test wants them on one line", n)
	}
	if st := ix.Stats(); st.Fallbacks < keys+1 || st.Splits == 0 {
		t.Fatalf("fallbacks = %d, splits = %d: the fallback paths did not run", st.Fallbacks, st.Splits)
	}
	for i := uint64(0); i < keys; i++ {
		if v, ok, err := h.Search(k64(i), nil); err != nil || !ok || !bytes.Equal(v, k64(i)) {
			t.Fatalf("key %d after the fallbacks: %x, %v, %v", i, v, ok, err)
		}
	}
}

// TestSplitFallbackBehindADoublingCopy replays, step by step, the
// interleaving that lost acknowledged inserts in HTM mode. A split on the
// fallback path reads the directory while no resize runs; a doubling then
// starts and copies the segment's covering entries into its new
// directory; only then does the split lock the entries. The old
// directory is still current, but a split written into it alone would be
// undone when the doubling installs its copy: the directory would route
// the moved half's keys to the half that no longer holds them, and route
// later inserts of those keys into it. lockCovering must refuse, and the
// split must land once the doubling is done.
func TestSplitFallbackBehindADoublingCopy(t *testing.T) {
	ix, h := newTestIndex(t, Config{InitialDepth: 2})
	c := h.c
	const n = 600
	for i := uint64(0); i < n; i++ {
		if err := h.Insert(k64(i), k64(i*2)); err != nil {
			t.Fatal(err)
		}
	}
	// A segment shallower than the directory, which a split may divide
	// without doubling first.
	var hh uint64
	d := ix.dir.Load()
	for i := uint64(0); ; i++ {
		if i == n {
			t.Fatal("every segment is as deep as the directory")
		}
		hh = makeReq(k64(i)).h
		if _, e := ix.resolveRaw(hh); entryDepth(e) < d.depth {
			break
		}
	}
	d, e := ix.unlockedEntry(hh)
	seg, depth := entrySeg(e), entryDepth(e)
	base := hash.Prefix(hh, depth) << (d.depth - depth)
	cover := uint64(1) << (d.depth - depth)

	// A doubling starts and copies the partitions covering the segment.
	ds := startDoubling(t, ix, c)
	for p := ds.partOf(base); p <= ds.partOf(base+cover-1); p++ {
		ix.copyStage(c, ds, p, false)
	}

	if ix.lockCovering(c, d, base, cover, seg, depth) {
		t.Fatal("lockCovering locked entries a running doubling has already copied")
	}

	// The doubling finishes; the split then goes through.
	finishDoubling(ix, c, ds)
	if err := ix.splitFallback(h, hh); err != nil {
		t.Fatal(err)
	}
	if err := ix.CheckInvariants(c); err != nil {
		t.Fatalf("after the split: %v", err)
	}
	for i := uint64(0); i < n; i++ {
		v, ok, err := h.Search(k64(i), nil)
		if err != nil || !ok || binary.LittleEndian.Uint64(v) != i*2 {
			t.Fatalf("key %d after the split: ok=%v err=%v", i, ok, err)
		}
	}
}

// TestFallbackResolveWaitsOutACopyInFlight replays the other interleaving
// that lost acknowledged inserts in HTM mode. During a doubling, a copy
// stage that has validated holds its partition's progress-word stripe
// until it has stored the word, so a fallback lock taken on an old
// directory entry in that window is ordered after the copy: the entry is
// no longer the authoritative one. A raw read of the progress word still
// said "not copied", and the fallback ran its body on a segment that a
// split then divided in the new directory. resolveCanonicalNoWait, which
// execFallback calls again once it holds the lock, must refuse (ok=false,
// so the fallback unlocks and waits the doubling out) until the copy is
// stored, and then answer with the new directory's entry.
func TestFallbackResolveWaitsOutACopyInFlight(t *testing.T) {
	ix, h := newTestIndex(t, Config{InitialDepth: 2})
	c := h.c
	const n = 600
	for i := uint64(0); i < n; i++ {
		if err := h.Insert(k64(i), k64(i*2)); err != nil {
			t.Fatal(err)
		}
	}
	hh := makeReq(k64(0)).h

	ds := startDoubling(t, ix, c)
	d := ds.old

	// A copy of hh's partition that has validated and holds the
	// progress word's stripe, with nothing stored yet.
	part := ds.partOf(ds.old.index(hh))
	held, release, copied := make(chan struct{}), make(chan struct{}), make(chan struct{})
	releaseOnce := sync.OnceFunc(func() { close(release) })
	defer releaseOnce()
	go func() {
		defer close(copied)
		dc := ix.pool.NewCtx()
		defer dc.Release()
		_ = ix.tm.Irrevocable(dc, ix.pool, func(it *htm.ITxn) error {
			it.LoadVol(ds.partDonePtr(part))
			close(held)
			<-release
			for j := part * entriesPerPartition; j < min((part+1)*entriesPerPartition, len(d.entries)); j++ {
				e := atomic.LoadUint64(&d.entries[j])
				it.StoreVol(&ds.new.entries[2*j], e)
				it.StoreVol(&ds.new.entries[2*j+1], e)
			}
			it.StoreVol(ds.partDonePtr(part), 1)
			return nil
		})
	}()
	<-held

	if cPtr, _, _, ok := ix.resolveCanonicalNoWait(hh); ok {
		t.Fatalf("resolved hh's canonical entry to %p while the copy of its partition was in flight", cPtr)
	}
	releaseOnce()
	<-copied
	e := atomic.LoadUint64(&ds.new.entries[ds.new.index(hh)])
	want := &ds.new.entries[ds.new.index(hh)]
	if depth := entryDepth(e); depth <= ds.old.depth {
		want = &ds.new.entries[(ds.old.index(hh)&^(uint64(1)<<(ds.old.depth-depth)-1))<<1]
	}
	if cPtr, _, _, ok := ix.resolveCanonicalNoWait(hh); !ok || cPtr != want {
		t.Fatal("after the copy, hh's canonical entry did not resolve to the new directory")
	}

	finishDoubling(ix, c, ds)
	if err := ix.CheckInvariants(c); err != nil {
		t.Fatal(err)
	}
	for i := uint64(0); i < n; i++ {
		if !holds(h, i) {
			t.Fatalf("key %d lost across the doubling", i)
		}
	}
}

// startDoubling begins a staged doubling the way triggerDouble does and
// copies nothing: the caller plays the stages.
func startDoubling(t *testing.T, ix *Index, c *pmem.Ctx) *doublingState {
	t.Helper()
	if !ix.resizeFlag.CompareAndSwap(0, 1) {
		t.Fatal("a resize is already in flight")
	}
	old := ix.dir.Load()
	ds := &doublingState{old: old, new: newDirectory(old.depth + 1)}
	ds.partDone = make([]uint64, ds.partitions())
	ix.doubling.Store(ds)
	ix.tm.BumpStoreVol(c, &ix.dirGen, atomic.LoadUint64(&ix.dirGen)+1)
	return ds
}

// finishDoubling copies what startDoubling's caller left and installs
// the new directory, as triggerDouble ends a doubling.
func finishDoubling(ix *Index, c *pmem.Ctx, ds *doublingState) {
	for p := 0; p < ds.partitions(); p++ {
		ix.copyStage(c, ds, p, false)
	}
	ix.dir.Store(ds.new)
	ix.tm.BumpStoreVol(c, &ix.dirGen, atomic.LoadUint64(&ix.dirGen)+1)
	ix.doubling.Store(nil)
	ix.resizeFlag.Store(0)
}

// Every split path writes both halves back as whole XPLines once it has
// published them (DP2, §VI-B), the covering-entry-lock fallback included.
func TestSplitFallbackFlushesBothHalves(t *testing.T) {
	ix, h := newTestIndex(t, Config{InitialDepth: 2})
	for i := uint64(0); i < 12; i++ {
		if err := h.Insert(k64(i), k64(i)); err != nil {
			t.Fatal(err)
		}
	}
	before := h.c.Stats().Flushes
	if err := ix.splitFallback(h, makeReq(k64(0)).h); err != nil {
		t.Fatal(err)
	}
	if st := ix.Stats(); st.Splits != 1 {
		t.Fatalf("splits = %d, want the fallback's one", st.Splits)
	}
	if got, want := h.c.Stats().Flushes-before, uint64(2*SegmentSize/pmem.CachelineSize); got != want {
		t.Fatalf("the fallback split flushed %d lines, want both halves' %d", got, want)
	}
}

// A stop-the-world resize builds its directory after draining fallback
// locks, so a lock bit it still sees belongs to an execFallback that
// locked after the drain and will back off, restoring the old entry:
// the builder may not copy that bit into the new directory, where no one
// would ever clear it.
func TestStopWorldBuildersDropFallbackLocks(t *testing.T) {
	old := newDirectory(3)
	for j := range old.entries {
		old.entries[j] = makeEntry(uint64(j/2+1)*SegmentSize, 2)
	}
	old.entries[4] |= entryLock
	for j, e := range doubled(old).entries {
		if e != entryUnlock(old.entries[j/2]) {
			t.Errorf("doubled: entry %d = %#x, want %#x", j, e, entryUnlock(old.entries[j/2]))
		}
	}
}

// A split whose transaction finds a covering directory entry
// fallback-locked waits for the holder as an operation's transaction
// does (TestFallbackLockWaitChargesOneAttempt): it pays for the attempt
// that met the lock and for its retry, each a charged snapshot and
// transaction, not for one of them on every pass of the host's scheduler
// while the holder keeps the lock. The split's key is covered by an
// entry other than its segment's canonical one, so only the transaction,
// which validates every covering entry, meets the lock.
func TestSplitLockWaitChargesOneAttempt(t *testing.T) {
	// build fills an index until some segment is covered by several
	// entries and returns a key covered by one that is not the first;
	// two builds are the same index.
	build := func() (*Index, uint64) {
		ix, h := newTestIndex(t, Config{})
		for i := uint64(0); i < 2000; i++ {
			if err := h.Insert(k64(i), k64(i)); err != nil {
				t.Fatal(err)
			}
		}
		d := ix.dir.Load()
		for i := uint64(0); i < 2000; i++ {
			hh := hashKey(k64(i))
			idx := d.index(hh)
			depth := entryDepth(d.entries[idx])
			if depth < d.depth && idx&(uint64(1)<<(d.depth-depth)-1) != 0 {
				return ix, hh
			}
		}
		t.Fatal("no key is covered by a segment's second entry")
		return nil, 0
	}
	split := func(ix *Index, hh uint64) int64 {
		w := ix.NewHandle(nil)
		defer w.Close()
		start := w.c.Clock()
		if err := ix.split(w, hh); err != nil {
			t.Errorf("split: %v", err)
		}
		return w.c.Clock() - start
	}
	ix, hh := build()
	free := split(ix, hh)

	ix, hh = build()
	cPtr, ce, _, ok := ix.resolveCanonicalNoWait(hh)
	if !ok {
		t.Fatal("no canonical entry")
	}
	atomic.StoreUint64(cPtr, ce|entryLock)
	var unlocked atomic.Bool
	done := make(chan int64)
	go func() {
		d := split(ix, hh)
		if !unlocked.Load() {
			t.Error("the split committed while a covering entry was fallback-locked")
		}
		done <- d
	}()
	time.Sleep(20 * time.Millisecond)
	unlocked.Store(true)
	atomic.StoreUint64(cPtr, ce)
	if waited := <-done; waited > 2*free {
		t.Fatalf("a split that waited out a fallback lock charged %d ns, want at most 2x the %d ns of an unlocked one", waited, free)
	}
}

// A transaction that finds its segment fallback-locked waits for the
// holder without charging its clock: the waiter pays for the attempt
// that met the lock and for its retry, however long the holder keeps
// the lock in real time, which the host's scheduler decides.
func TestFallbackLockWaitChargesOneAttempt(t *testing.T) {
	ix, h := newTestIndex(t, Config{})
	key := k64(42)
	if err := h.Insert(key, k64(7)); err != nil {
		t.Fatal(err)
	}
	w := ix.NewHandle(nil)
	defer w.Close()
	search := func() int64 {
		start := w.c.Clock()
		if _, ok, err := w.Search(key, nil); err != nil || !ok {
			t.Errorf("search: found %v, err %v", ok, err)
		}
		return w.c.Clock() - start
	}
	search()
	free := search()

	cPtr, ce, _, ok := ix.resolveCanonicalNoWait(hashKey(key))
	if !ok {
		t.Fatal("no canonical entry")
	}
	atomic.StoreUint64(cPtr, ce|entryLock)
	var unlocked atomic.Bool
	done := make(chan int64)
	go func() {
		d := search()
		if !unlocked.Load() {
			t.Error("the search returned while its segment was fallback-locked")
		}
		done <- d
	}()
	time.Sleep(20 * time.Millisecond)
	unlocked.Store(true)
	atomic.StoreUint64(cPtr, ce)
	if waited := <-done; waited > 2*free {
		t.Fatalf("a search that waited out a fallback lock charged %d ns, want at most 2x the %d ns of an unlocked one", waited, free)
	}
}
