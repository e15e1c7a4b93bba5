package spash

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"strings"
	"sync"
	"testing"
	"testing/quick"

	"spash/internal/pmem"
)

func key64(v uint64) []byte {
	b := make([]byte, 8)
	binary.LittleEndian.PutUint64(b, v)
	return b
}

func TestPublicAPIBasics(t *testing.T) {
	db, err := Open(Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()
	s := db.Session()
	defer s.Close()

	if err := s.Insert([]byte("hello"), []byte("world")); err != nil {
		t.Fatal(err)
	}
	v, ok, err := s.Get([]byte("hello"), nil)
	if err != nil || !ok || string(v) != "world" {
		t.Fatalf("Get = %q, %v, %v", v, ok, err)
	}
	if found, err := s.Update([]byte("hello"), []byte("there")); err != nil || !found {
		t.Fatalf("Update: %v %v", found, err)
	}
	v, _, _ = s.Get([]byte("hello"), nil)
	if string(v) != "there" {
		t.Fatalf("after update: %q", v)
	}
	if found, err := s.Delete([]byte("hello")); err != nil || !found {
		t.Fatalf("Delete: %v %v", found, err)
	}
	if _, ok, _ := s.Get([]byte("hello"), nil); ok {
		t.Fatal("found after delete")
	}
	if db.Len() != 0 {
		t.Fatalf("Len = %d", db.Len())
	}
}

func TestPublicAPIRejectsBadSizes(t *testing.T) {
	db, _ := Open(Options{})
	s := db.Session()
	if err := s.Insert(nil, []byte("v")); err == nil {
		t.Fatal("empty key accepted")
	}
	if err := s.Insert(bytes.Repeat([]byte{1}, MaxKVLen+1), []byte("v")); err == nil {
		t.Fatal("oversized key accepted")
	}
	if err := s.Insert([]byte("k"), bytes.Repeat([]byte{1}, MaxKVLen+1)); err == nil {
		t.Fatal("oversized value accepted")
	}
}

func TestPublicCrashRecover(t *testing.T) {
	db, err := Open(Options{Shards: 1})
	if err != nil {
		t.Fatal(err)
	}
	s := db.Session()
	for i := uint64(0); i < 5000; i++ {
		if err := s.Insert(key64(i), key64(i*3)); err != nil {
			t.Fatal(err)
		}
	}
	platforms := db.Platforms()
	if lost := db.Crash(); lost != 0 {
		t.Fatalf("eADR crash lost %d lines", lost)
	}
	db2, err := RecoverAll(platforms, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if db2.Len() != 5000 {
		t.Fatalf("recovered len %d", db2.Len())
	}
	s2 := db2.Session()
	for i := uint64(0); i < 5000; i++ {
		v, ok, _ := s2.Get(key64(i), nil)
		if !ok || binary.LittleEndian.Uint64(v) != i*3 {
			t.Fatalf("key %d", i)
		}
	}
}

func TestPublicStatsExposeMemoryCounters(t *testing.T) {
	db, _ := Open(Options{})
	s := db.Session()
	for i := uint64(0); i < 1000; i++ {
		s.Insert(key64(i), key64(i))
	}
	st := db.Stats()
	if st.Index.Entries != 1000 {
		t.Fatalf("entries %d", st.Index.Entries)
	}
	if st.Memory.CacheMisses == 0 || st.Memory.XPLineWrites == 0 {
		t.Fatalf("memory counters empty: %+v", st.Memory)
	}
}

func TestPublicConcurrentSessions(t *testing.T) {
	db, _ := Open(Options{})
	var wg sync.WaitGroup
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			s := db.Session()
			defer s.Close()
			for i := 0; i < 2000; i++ {
				k := key64(uint64(w*2000 + i))
				if err := s.Insert(k, k); err != nil {
					t.Error(err)
					return
				}
			}
		}(w)
	}
	wg.Wait()
	if db.Len() != 8000 {
		t.Fatalf("len = %d", db.Len())
	}
}

func TestPublicBatch(t *testing.T) {
	db, _ := Open(Options{})
	s := db.Session()
	ops := make([]Op, 100)
	for i := range ops {
		ops[i] = Op{Kind: OpInsert, Key: key64(uint64(i)), Value: key64(uint64(i))}
	}
	s.ExecBatch(ops)
	gets := make([]Op, 100)
	for i := range gets {
		gets[i] = Op{Kind: OpGet, Key: key64(uint64(i))}
	}
	s.ExecBatch(gets)
	for i := range gets {
		if !gets[i].Found {
			t.Fatalf("op %d not found", i)
		}
	}
}

// A write the device has no room for fails with ErrNoSpace, alone and in
// a batch, and DescribeError says what to do; the full DB still serves
// reads and deletes, and a delete makes room for its key again.
func TestFullPoolRefusesWritesWithErrNoSpace(t *testing.T) {
	db, err := Open(Options{Shards: 1, Platform: pmem.Config{PoolSize: 2 << 20, CacheSize: 64 << 10}})
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()
	s := db.Session()
	defer s.Close()
	key := func(i int) []byte { return []byte(fmt.Sprintf("key-%012d", i)) }
	val := bytes.Repeat([]byte{7}, 100)
	n := 0
	for ; err == nil; n++ {
		if n > 1<<20 {
			t.Fatal("pool never filled")
		}
		err = s.Insert(key(n), val)
	}
	if !errors.Is(err, ErrNoSpace) {
		t.Fatalf("insert %d on a full pool: %v, want ErrNoSpace", n-1, err)
	}
	if d := DescribeError(err); !strings.Contains(d, "device is full") {
		t.Fatalf("DescribeError(%v) = %q", err, d)
	}
	ops := []Op{{Kind: OpInsert, Key: key(n), Value: val}, {Kind: OpGet, Key: key(0)}}
	s.ExecBatch(ops)
	if !errors.Is(ops[0].Err, ErrNoSpace) {
		t.Fatalf("batched insert on a full pool: %v, want ErrNoSpace", ops[0].Err)
	}
	if ops[1].Err != nil || !ops[1].Found || !bytes.Equal(ops[1].Result, val) {
		t.Fatalf("batched Get on a full pool: %q, %v, %v", ops[1].Result, ops[1].Found, ops[1].Err)
	}
	if v, ok, err := s.Get(key(1), nil); err != nil || !ok || !bytes.Equal(v, val) {
		t.Fatalf("Get on a full pool: %q, %v, %v", v, ok, err)
	}
	if ok, err := s.Delete(key(0)); err != nil || !ok {
		t.Fatalf("Delete on a full pool: %v, %v", ok, err)
	}
	if err := s.Insert(key(0), val); err != nil {
		t.Fatalf("re-insert after a delete: %v", err)
	}
}

// A full device recovers: fill a 2 MB pool to ErrNoSpace, cut the power
// and RecoverAll, under eADR and under ADR. Every acknowledged key reads
// back through batched Gets (which run the pipeline's record stage over
// the recovered index), and a delete still makes room for a re-insert.
// Under ADR the cache is written back before the cut: what is under test
// is a full pool's recovery, not ADR's rollback of unflushed lines, which
// the crash drills cover.
func TestFullPoolRecovers(t *testing.T) {
	for _, mode := range []pmem.Mode{pmem.EADR, pmem.ADR} {
		t.Run(mode.String(), func(t *testing.T) {
			opts := Options{Shards: 1, Platform: pmem.Config{PoolSize: 2 << 20, CacheSize: 64 << 10, Mode: mode}}
			db, err := Open(opts)
			if err != nil {
				t.Fatal(err)
			}
			s := db.Session()
			key := func(i int) []byte { return []byte(fmt.Sprintf("key-%012d", i)) }
			val := func(i int) []byte { return []byte(fmt.Sprintf("%0100d", i)) }
			n := 0
			for ; ; n++ {
				if n > 1<<20 {
					t.Fatal("pool never filled")
				}
				if err = s.Insert(key(n), val(n)); err != nil {
					break
				}
			}
			if !errors.Is(err, ErrNoSpace) {
				t.Fatalf("insert %d on a full pool: %v, want ErrNoSpace", n, err)
			}
			s.Close()
			platforms := db.Platforms()
			if mode == pmem.ADR {
				for _, p := range platforms {
					c := p.NewCtx()
					p.Flush(c, 0, p.Size())
					p.Fence(c)
					c.Release()
				}
			}
			if lost := db.Crash(); lost != 0 {
				t.Fatalf("the cut lost %d lines", lost)
			}
			db2, err := RecoverAll(platforms, opts)
			if err != nil {
				t.Fatalf("recovering a full pool: %v", err)
			}
			if db2.Len() != n {
				t.Fatalf("recovered %d keys, %d were acknowledged", db2.Len(), n)
			}
			s2 := db2.Session()
			defer s2.Close()
			ops := make([]Op, 0, 64)
			for i := 0; i < n; i += len(ops) {
				ops = ops[:0]
				for j := i; j < n && len(ops) < cap(ops); j++ {
					ops = append(ops, Op{Kind: OpGet, Key: key(j)})
				}
				s2.ExecBatch(ops)
				for j := range ops {
					if ops[j].Err != nil || !ops[j].Found || !bytes.Equal(ops[j].Result, val(i+j)) {
						t.Fatalf("batched Get of acknowledged key %d after recovery: %q, %v, %v", i+j, ops[j].Result, ops[j].Found, ops[j].Err)
					}
				}
			}
			if ok, err := s2.Delete(key(0)); err != nil || !ok {
				t.Fatalf("Delete on the recovered full pool: %v, %v", ok, err)
			}
			if err := s2.Insert(key(0), val(0)); err != nil {
				t.Fatalf("re-insert after a delete: %v", err)
			}
			if v, ok, err := s2.Get(key(0), nil); err != nil || !ok || !bytes.Equal(v, val(0)) {
				t.Fatalf("Get of the re-inserted key: %q, %v, %v", v, ok, err)
			}
		})
	}
}

// Property: arbitrary byte keys and values round-trip.
func TestPublicRoundTripProperty(t *testing.T) {
	db, _ := Open(Options{})
	s := db.Session()
	i := 0
	f := func(suffix []byte, val []byte) bool {
		i++
		if len(val) > 4096 {
			val = val[:4096]
		}
		key := append([]byte(fmt.Sprintf("k%06d-", i)), suffix...)
		if len(key) > 4096 {
			key = key[:4096]
		}
		if err := s.Insert(key, val); err != nil {
			return false
		}
		got, ok, err := s.Get(key, nil)
		return err == nil && ok && bytes.Equal(got, val)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

func TestPublicADRMode(t *testing.T) {
	cfg := pmem.DefaultConfig()
	cfg.Mode = pmem.ADR
	db, err := Open(Options{Platform: cfg})
	if err != nil {
		t.Fatal(err)
	}
	s := db.Session()
	for i := uint64(0); i < 100; i++ {
		if err := s.Insert(key64(i), key64(i)); err != nil {
			t.Fatal(err)
		}
	}
	// ADR platform works while powered; durability without flushes is
	// what it lacks (covered by core tests).
	if db.Len() != 100 {
		t.Fatalf("len %d", db.Len())
	}
}

func TestForEachVisitsEverything(t *testing.T) {
	db, _ := Open(Options{})
	s := db.Session()
	want := map[string]string{}
	for i := uint64(0); i < 5000; i++ {
		k := string(key64(i))
		v := string(key64(i * 7))
		want[k] = v
		if err := s.Insert([]byte(k), []byte(v)); err != nil {
			t.Fatal(err)
		}
	}
	got := map[string]string{}
	err := s.ForEach(func(k, v []byte) bool {
		got[string(k)] = string(v)
		return true
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != len(want) {
		t.Fatalf("visited %d, want %d", len(got), len(want))
	}
	for k, v := range want {
		if got[k] != v {
			t.Fatalf("key %q: %q != %q", k, got[k], v)
		}
	}
	// Early stop.
	n := 0
	s.ForEach(func(k, v []byte) bool { n++; return n < 10 })
	if n != 10 {
		t.Fatalf("early stop visited %d", n)
	}
}
