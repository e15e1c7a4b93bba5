package spash

import (
	"errors"
	"sync"
	"testing"

	"spash/internal/alloc"
	"spash/internal/pmem"
)

// smallPlatform keeps multi-shard tests fast: 4 shards on a default
// 256 MB pool would format 4×64 MB devices per subtest.
func smallPlatform() pmem.Config {
	cfg := pmem.DefaultConfig()
	cfg.PoolSize = 64 << 20
	cfg.CacheSize = 2 << 20
	return cfg
}

func TestShardedRoundTrip(t *testing.T) {
	db, err := Open(Options{Platform: smallPlatform(), Shards: 4})
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()
	if db.Shards() != 4 {
		t.Fatalf("Shards() = %d", db.Shards())
	}
	s := db.Session()
	defer s.Close()
	const n = 20000
	for i := uint64(0); i < n; i++ {
		if err := s.Insert(key64(i), key64(i*3)); err != nil {
			t.Fatal(err)
		}
	}
	if db.Len() != n {
		t.Fatalf("Len = %d", db.Len())
	}
	for i := uint64(0); i < n; i++ {
		v, ok, err := s.Get(key64(i), nil)
		if err != nil || !ok || string(v) != string(key64(i*3)) {
			t.Fatalf("key %d: %q %v %v", i, v, ok, err)
		}
	}
	// Every shard must hold a fair slice of the keys (low-bit routing
	// of sequential 64-bit keys is near-uniform).
	st := db.Stats()
	if len(st.Shards) != 4 {
		t.Fatalf("per-shard stats: %d entries", len(st.Shards))
	}
	var sum int64
	for i, sh := range st.Shards {
		if sh.Index.Entries < n/8 {
			t.Fatalf("shard %d holds only %d of %d keys", i, sh.Index.Entries, n)
		}
		sum += sh.Index.Entries
	}
	if sum != st.Index.Entries || sum != n {
		t.Fatalf("aggregate %d != sum of shards %d", st.Index.Entries, sum)
	}
}

func TestShardedBatchRouting(t *testing.T) {
	db, err := Open(Options{Platform: smallPlatform(), Shards: 4})
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()
	s := db.Session()
	defer s.Close()
	const n = 500
	ops := make([]Op, n)
	for i := range ops {
		ops[i] = Op{Kind: OpInsert, Key: key64(uint64(i)), Value: key64(uint64(i * 7))}
	}
	s.ExecBatch(ops)
	for i := range ops {
		if ops[i].Err != nil {
			t.Fatalf("insert %d: %v", i, ops[i].Err)
		}
	}
	gets := make([]Op, n)
	for i := range gets {
		gets[i] = Op{Kind: OpGet, Key: key64(uint64(i))}
	}
	s.ExecBatch(gets)
	for i := range gets {
		if !gets[i].Found || string(gets[i].Result) != string(key64(uint64(i*7))) {
			t.Fatalf("get %d: found=%v result=%q", i, gets[i].Found, gets[i].Result)
		}
	}
}

func TestShardedCrashRecoverAll(t *testing.T) {
	db, err := Open(Options{Platform: smallPlatform(), Shards: 4})
	if err != nil {
		t.Fatal(err)
	}
	s := db.Session()
	const n = 10000
	for i := uint64(0); i < n; i++ {
		if err := s.Insert(key64(i), key64(i*3)); err != nil {
			t.Fatal(err)
		}
	}
	platforms := db.Platforms()
	if len(platforms) != 4 {
		t.Fatalf("platforms: %d", len(platforms))
	}
	if lost := db.Crash(); lost != 0 {
		t.Fatalf("eADR crash lost %d lines", lost)
	}
	db2, err := RecoverAll(platforms, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if db2.Shards() != 4 {
		t.Fatalf("recovered shards: %d", db2.Shards())
	}
	if db2.Len() != n {
		t.Fatalf("recovered len %d", db2.Len())
	}
	s2 := db2.Session()
	for i := uint64(0); i < n; i++ {
		v, ok, err := s2.Get(key64(i), nil)
		if err != nil || !ok || string(v) != string(key64(i*3)) {
			t.Fatalf("key %d after recovery: %q %v %v", i, v, ok, err)
		}
	}
}

func TestCloseInvalidatesSessions(t *testing.T) {
	db, err := Open(Options{Platform: smallPlatform(), Shards: 2})
	if err != nil {
		t.Fatal(err)
	}
	s := db.Session()
	if err := s.Insert([]byte("k"), []byte("v")); err != nil {
		t.Fatal(err)
	}
	db.Close()
	db.Close() // double close is safe

	if err := s.Insert([]byte("k2"), []byte("v")); !errors.Is(err, ErrClosed) {
		t.Fatalf("Insert after close: %v", err)
	}
	if _, _, err := s.Get([]byte("k"), nil); !errors.Is(err, ErrClosed) {
		t.Fatalf("Get after close: %v", err)
	}
	if _, err := s.Update([]byte("k"), []byte("v2")); !errors.Is(err, ErrClosed) {
		t.Fatalf("Update after close: %v", err)
	}
	if _, err := s.Delete([]byte("k")); !errors.Is(err, ErrClosed) {
		t.Fatalf("Delete after close: %v", err)
	}
	ops := []Op{{Kind: OpGet, Key: []byte("k")}}
	s.ExecBatch(ops)
	if !errors.Is(ops[0].Err, ErrClosed) {
		t.Fatalf("batch op after close: %v", ops[0].Err)
	}
	if err := s.ForEach(func(k, v []byte) bool { return true }); !errors.Is(err, ErrClosed) {
		t.Fatalf("ForEach after close: %v", err)
	}
	if _, err := s.Fsck(false); !errors.Is(err, ErrClosed) {
		t.Fatalf("Fsck after close: %v", err)
	}
	s.Close()
}

func TestRecoverGeometryMismatch(t *testing.T) {
	// Requesting checksum maintenance on a device that was never
	// sealed is a geometry mismatch, not a silent downgrade.
	db, err := Open(Options{Platform: smallPlatform(), Shards: 1})
	if err != nil {
		t.Fatal(err)
	}
	s := db.Session()
	if err := s.Insert([]byte("k"), []byte("v")); err != nil {
		t.Fatal(err)
	}
	platforms := db.Platforms()
	db.Crash()
	_, err = RecoverAll(platforms, Options{Index: IndexOptions{Checksums: true}})
	if !errors.Is(err, ErrGeometry) {
		t.Fatalf("checksum mismatch: got %v, want ErrGeometry", err)
	}
	var ge *GeometryError
	if !errors.As(err, &ge) || ge.Field != "checksums" {
		t.Fatalf("geometry error detail: %v", err)
	}

	// A corrupted geometry stamp (here: a different segment size) is
	// rejected before any structural state is trusted.
	db2, err := RecoverAll(platforms, Options{})
	if err != nil {
		t.Fatal(err)
	}
	p2 := db2.Platforms()[0]
	c := p2.NewCtx()
	const rootGeomWord = 3 // core's rootGeom slot
	geom := p2.Load64(c, alloc.RootAddr(rootGeomWord))
	p2.Store64(c, alloc.RootAddr(rootGeomWord), geom+(1<<32))
	db2.Crash()
	_, err = RecoverAll([]*pmem.Pool{p2}, Options{})
	if !errors.Is(err, ErrGeometry) {
		t.Fatalf("corrupt stamp: got %v, want ErrGeometry", err)
	}
	if !errors.As(err, &ge) || ge.Field != "segment-size" {
		t.Fatalf("corrupt stamp detail: %v", err)
	}
}

// Shards=1 must keep LoadFactor bit-identical to the direct index
// computation (the pre-refactor behaviour).
func TestSingleShardLoadFactorUnchanged(t *testing.T) {
	db, err := Open(Options{Platform: smallPlatform(), Shards: 1})
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()
	s := db.Session()
	defer s.Close()
	for i := uint64(0); i < 5000; i++ {
		if err := s.Insert(key64(i), key64(i)); err != nil {
			t.Fatal(err)
		}
	}
	if got, want := db.LoadFactor(), db.Indexes()[0].LoadFactor(); got != want {
		t.Fatalf("LoadFactor %v != index %v", got, want)
	}
}

func TestShardedObsSnapshotAggregates(t *testing.T) {
	db, err := Open(Options{Platform: smallPlatform(), Shards: 2})
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()
	s := db.Session()
	defer s.Close()
	for i := uint64(0); i < 2000; i++ {
		if err := s.Insert(key64(i), key64(i)); err != nil {
			t.Fatal(err)
		}
	}
	per := db.ObsSnapshots()
	if len(per) != 2 {
		t.Fatalf("per-shard snapshots: %d", len(per))
	}
	agg := db.ObsSnapshot()
	if want := per[0].Mem.XPLineWrites + per[1].Mem.XPLineWrites; agg.Mem.XPLineWrites != want {
		t.Fatalf("aggregate XPLineWrites %d != %d", agg.Mem.XPLineWrites, want)
	}
	if agg.Mem.XPLineWrites == 0 {
		t.Fatal("no media writes recorded")
	}
}

// Keys must never cross shards: a key routed to shard i at insert time
// must be found by a fresh session (same routing) and by Fsck's
// per-shard placement walk.
func TestShardRoutingStable(t *testing.T) {
	db, err := Open(Options{Platform: smallPlatform(), Shards: 3})
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()
	s := db.Session()
	for i := uint64(0); i < 3000; i++ {
		if err := s.Insert(key64(i), key64(i)); err != nil {
			t.Fatal(err)
		}
	}
	s.Close()
	s2 := db.Session()
	defer s2.Close()
	for i := uint64(0); i < 3000; i++ {
		if _, ok, err := s2.Get(key64(i), nil); !ok || err != nil {
			t.Fatalf("key %d: %v %v", i, ok, err)
		}
	}
	rep, err := s2.Fsck(false)
	if err != nil {
		t.Fatal(err)
	}
	if !rep.Clean() {
		t.Fatalf("fsck found faults: %+v", rep)
	}
	if rep.Segments == 0 {
		t.Fatal("merged fsck report walked no segments")
	}
	var segs int64
	for _, ix := range db.Indexes() {
		segs += ix.Stats().Segments
	}
	if int64(rep.Segments) != segs {
		t.Fatalf("fsck walked %d segments, shards hold %d", rep.Segments, segs)
	}
}

// TestShardedTryShrinkConcurrent guards the fix for DB.TryShrink
// reusing the shards' bootstrap contexts: pmem.Ctx is per-worker
// state, so two concurrent TryShrink callers (or TryShrink racing
// other maintenance on Unit.Ctx) would share one virtual clock.
// TryShrink now takes a fresh context per shard per call; this test
// fails under -race with the old implementation.
func TestShardedTryShrinkConcurrent(t *testing.T) {
	db, err := Open(Options{Platform: smallPlatform(), Shards: 2})
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()
	s := db.Session()
	defer s.Close()
	const n = 4000
	for i := uint64(0); i < n; i++ {
		if err := s.Insert(key64(i), key64(i)); err != nil {
			t.Fatal(err)
		}
	}
	// Deleting most keys gives TryShrink real shrink work to race on.
	for i := uint64(0); i < n-8; i++ {
		if _, err := s.Delete(key64(i)); err != nil {
			t.Fatal(err)
		}
	}

	var wg sync.WaitGroup
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 8; i++ {
				db.TryShrink()
			}
		}()
	}
	wg.Add(1)
	go func() {
		defer wg.Done()
		s2 := db.Session()
		defer s2.Close()
		for i := uint64(0); i < 2000; i++ {
			if err := s2.Insert(key64(n+i), key64(i)); err != nil {
				t.Error(err)
				return
			}
		}
	}()
	wg.Wait()

	got, found, err := s.Get(key64(n-1), nil)
	if err != nil || !found || string(got) != string(key64(n-1)) {
		t.Fatalf("surviving key lost after concurrent shrink: found=%v err=%v", found, err)
	}
}
