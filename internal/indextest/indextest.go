// Package indextest is a conformance suite run against Spash and
// every baseline: one set of behavioural tests, one call site
// (internal/harness's TestConformance, over the constructor table).
package indextest

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"math/rand"
	"sync"
	"testing"

	"spash/internal/ixapi"
	"spash/internal/pmem"
)

func k64(v uint64) []byte {
	b := make([]byte, 8)
	binary.LittleEndian.PutUint64(b, v)
	return b
}

func defaultPlatform() pmem.Config {
	return pmem.Config{PoolSize: 256 << 20, CacheSize: 1 << 20}
}

// suite is one conformance run: the index's constructor and whether
// its Len is exact.
type suite struct {
	factory  ixapi.Factory
	exactLen bool
}

// Run executes the whole conformance suite against the factory.
// approxLen skips the exact-count assertions, for an index that only
// settles its live count at merge time (LSM-style designs).
func Run(t *testing.T, factory ixapi.Factory, approxLen bool) {
	s := suite{factory: factory, exactLen: !approxLen}
	t.Run("BasicCRUD", s.testBasicCRUD)
	t.Run("AbsentKeys", s.testAbsentKeys)
	t.Run("Growth", s.testGrowth)
	t.Run("VariableKV", s.testVariableKV)
	t.Run("DeleteReinsert", s.testDeleteReinsert)
	t.Run("ModelCheck", s.testModelCheck)
	t.Run("ConcurrentDisjoint", s.testConcurrentDisjoint)
	t.Run("ConcurrentSharedUpdates", s.testConcurrentShared)
	t.Run("LoadFactorSanity", s.testLoadFactor)
}

func (s suite) open(t *testing.T) ixapi.Index {
	t.Helper()
	ix, err := s.factory(defaultPlatform())
	if err != nil {
		t.Fatal(err)
	}
	return ix
}

func (s suite) testBasicCRUD(t *testing.T) {
	ix := s.open(t)
	w := ix.NewWorker()
	defer w.Close()
	if err := w.Insert([]byte("alpha"), []byte("1")); err != nil {
		t.Fatal(err)
	}
	v, ok, err := w.Search([]byte("alpha"), nil)
	if err != nil || !ok || string(v) != "1" {
		t.Fatalf("search: %q %v %v", v, ok, err)
	}
	if found, err := w.Update([]byte("alpha"), []byte("2")); err != nil || !found {
		t.Fatalf("update: %v %v", found, err)
	}
	v, _, _ = w.Search([]byte("alpha"), nil)
	if string(v) != "2" {
		t.Fatalf("after update: %q", v)
	}
	if err := w.Insert([]byte("alpha"), []byte("3")); err != nil {
		t.Fatal(err)
	}
	v, _, _ = w.Search([]byte("alpha"), nil)
	if string(v) != "3" {
		t.Fatalf("after upsert: %q", v)
	}
	if s.exactLen && ix.Len() != 1 {
		t.Fatalf("len = %d", ix.Len())
	}
	if found, err := w.Delete([]byte("alpha")); err != nil || !found {
		t.Fatalf("delete: %v %v", found, err)
	}
	if _, ok, _ := w.Search([]byte("alpha"), nil); ok {
		t.Fatal("present after delete")
	}
	if s.exactLen && ix.Len() != 0 {
		t.Fatalf("len = %d after delete", ix.Len())
	}
}

func (s suite) testAbsentKeys(t *testing.T) {
	ix := s.open(t)
	w := ix.NewWorker()
	defer w.Close()
	for i := uint64(0); i < 100; i++ {
		w.Insert(k64(i), k64(i))
	}
	if _, ok, _ := w.Search(k64(1000), nil); ok {
		t.Fatal("found absent key")
	}
	if found, _ := w.Update(k64(1000), k64(0)); found {
		t.Fatal("updated absent key")
	}
	if found, _ := w.Delete(k64(1000)); found {
		t.Fatal("deleted absent key")
	}
}

func (s suite) testGrowth(t *testing.T) {
	ix := s.open(t)
	w := ix.NewWorker()
	defer w.Close()
	const n = 30000
	for i := uint64(0); i < n; i++ {
		if err := w.Insert(k64(i), k64(i*2)); err != nil {
			t.Fatalf("insert %d: %v", i, err)
		}
	}
	if s.exactLen && ix.Len() != n {
		t.Fatalf("len = %d, want %d", ix.Len(), n)
	}
	for i := uint64(0); i < n; i++ {
		v, ok, err := w.Search(k64(i), nil)
		if err != nil || !ok || binary.LittleEndian.Uint64(v) != i*2 {
			t.Fatalf("key %d: ok=%v err=%v", i, ok, err)
		}
	}
}

func (s suite) testVariableKV(t *testing.T) {
	ix := s.open(t)
	w := ix.NewWorker()
	defer w.Close()
	rng := rand.New(rand.NewSource(4))
	type kv struct{ k, v []byte }
	var kvs []kv
	for i := 0; i < 3000; i++ {
		k := []byte(fmt.Sprintf("user%012d", i))
		v := make([]byte, 16+rng.Intn(1008))
		rng.Read(v)
		kvs = append(kvs, kv{k, v})
		if err := w.Insert(k, v); err != nil {
			t.Fatal(err)
		}
	}
	for i, e := range kvs {
		got, ok, err := w.Search(e.k, nil)
		if err != nil || !ok || !bytes.Equal(got, e.v) {
			t.Fatalf("kv %d: ok=%v err=%v len=%d/%d", i, ok, err, len(got), len(e.v))
		}
	}
	// Updates with size changes.
	for i, e := range kvs {
		nv := make([]byte, 16+rng.Intn(1008))
		rng.Read(nv)
		if found, err := w.Update(e.k, nv); err != nil || !found {
			t.Fatalf("update %d: %v %v", i, found, err)
		}
		kvs[i].v = nv
	}
	for i, e := range kvs {
		got, ok, _ := w.Search(e.k, nil)
		if !ok || !bytes.Equal(got, e.v) {
			t.Fatalf("after update %d: ok=%v", i, ok)
		}
	}
}

func (s suite) testDeleteReinsert(t *testing.T) {
	ix := s.open(t)
	w := ix.NewWorker()
	defer w.Close()
	for round := 0; round < 4; round++ {
		for i := uint64(0); i < 2000; i++ {
			if err := w.Insert(k64(i), k64(uint64(round))); err != nil {
				t.Fatal(err)
			}
		}
		for i := uint64(0); i < 2000; i++ {
			if ok, err := w.Delete(k64(i)); err != nil || !ok {
				t.Fatalf("round %d delete %d: %v %v", round, i, ok, err)
			}
		}
	}
	if s.exactLen && ix.Len() != 0 {
		t.Fatalf("len = %d", ix.Len())
	}
}

func (s suite) testModelCheck(t *testing.T) {
	ix := s.open(t)
	w := ix.NewWorker()
	defer w.Close()
	model := map[string][]byte{}
	rng := rand.New(rand.NewSource(77))
	for step := 0; step < 20000; step++ {
		key := k64(uint64(rng.Intn(1500)))
		switch rng.Intn(4) {
		case 0:
			val := make([]byte, 8+rng.Intn(56))
			rng.Read(val)
			if err := w.Insert(key, val); err != nil {
				t.Fatal(err)
			}
			model[string(key)] = append([]byte(nil), val...)
		case 1:
			val := make([]byte, 8+rng.Intn(56))
			rng.Read(val)
			found, err := w.Update(key, val)
			if err != nil {
				t.Fatal(err)
			}
			if _, want := model[string(key)]; found != want {
				t.Fatalf("step %d: update found=%v", step, found)
			}
			if found {
				model[string(key)] = append([]byte(nil), val...)
			}
		case 2:
			found, err := w.Delete(key)
			if err != nil {
				t.Fatal(err)
			}
			if _, want := model[string(key)]; found != want {
				t.Fatalf("step %d: delete found=%v", step, found)
			}
			delete(model, string(key))
		default:
			got, found, err := w.Search(key, nil)
			if err != nil {
				t.Fatal(err)
			}
			want, wantFound := model[string(key)]
			if found != wantFound || (found && !bytes.Equal(got, want)) {
				t.Fatalf("step %d: search mismatch (found=%v want=%v)", step, found, wantFound)
			}
		}
	}
	if s.exactLen && ix.Len() != len(model) {
		t.Fatalf("len %d vs model %d", ix.Len(), len(model))
	}
}

func (s suite) testConcurrentDisjoint(t *testing.T) {
	ix := s.open(t)
	const workers, per = 6, 4000
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			wk := ix.NewWorker()
			defer wk.Close()
			for i := 0; i < per; i++ {
				key := uint64(w*per + i)
				if err := wk.Insert(k64(key), k64(key+1)); err != nil {
					t.Error(err)
					return
				}
			}
		}(w)
	}
	wg.Wait()
	if s.exactLen && ix.Len() != workers*per {
		t.Fatalf("len = %d, want %d", ix.Len(), workers*per)
	}
	wk := ix.NewWorker()
	defer wk.Close()
	for i := uint64(0); i < workers*per; i++ {
		v, ok, err := wk.Search(k64(i), nil)
		if err != nil || !ok || binary.LittleEndian.Uint64(v) != i+1 {
			t.Fatalf("key %d: ok=%v err=%v", i, ok, err)
		}
	}
}

func (s suite) testConcurrentShared(t *testing.T) {
	ix := s.open(t)
	wk0 := ix.NewWorker()
	const keys = 64
	mkval := func(tag byte) []byte { return bytes.Repeat([]byte{tag}, 128) }
	for i := uint64(0); i < keys; i++ {
		if err := wk0.Insert(k64(i), mkval(0)); err != nil {
			t.Fatal(err)
		}
	}
	var wwg, rwg sync.WaitGroup
	stop := make(chan struct{})
	for w := 0; w < 3; w++ {
		wwg.Add(1)
		go func(w int) {
			defer wwg.Done()
			wk := ix.NewWorker()
			defer wk.Close()
			rng := rand.New(rand.NewSource(int64(w)))
			for i := 0; i < 2000; i++ {
				k := uint64(rng.Intn(keys))
				if found, err := wk.Update(k64(k), mkval(byte(w+1))); err != nil || !found {
					t.Errorf("update: %v %v", found, err)
					return
				}
			}
		}(w)
	}
	for r := 0; r < 2; r++ {
		rwg.Add(1)
		go func() {
			defer rwg.Done()
			wk := ix.NewWorker()
			defer wk.Close()
			rng := rand.New(rand.NewSource(42))
			for {
				select {
				case <-stop:
					return
				default:
				}
				k := uint64(rng.Intn(keys))
				v, ok, err := wk.Search(k64(k), nil)
				if err != nil || !ok || len(v) != 128 {
					t.Errorf("search: ok=%v err=%v len=%d", ok, err, len(v))
					return
				}
				for i := 1; i < len(v); i++ {
					if v[i] != v[0] {
						t.Errorf("torn read")
						return
					}
				}
			}
		}()
	}
	wwg.Wait()
	close(stop)
	rwg.Wait()
}

func (s suite) testLoadFactor(t *testing.T) {
	ix := s.open(t)
	w := ix.NewWorker()
	defer w.Close()
	for i := uint64(0); i < 20000; i++ {
		if err := w.Insert(k64(i), k64(i)); err != nil {
			t.Fatal(err)
		}
	}
	lf := ix.LoadFactor()
	if s.exactLen && (lf <= 0 || lf > 1.0001) {
		t.Fatalf("load factor %v out of range", lf)
	}
}
