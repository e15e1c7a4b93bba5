package core

import (
	"fmt"
	"math/rand"
	"sync"
	"testing"
)

// The invariant checker must pass after every kind of structural
// churn: growth through splits and doublings, deletes with merges,
// shrink, and a random mixed history.
func TestInvariantsAfterGrowth(t *testing.T) {
	ix, h := newTestIndex(t, Config{InitialDepth: 2})
	for i := uint64(0); i < 30000; i++ {
		if err := h.Insert(k64(i), k64(i)); err != nil {
			t.Fatal(err)
		}
	}
	if err := ix.CheckInvariants(h.c); err != nil {
		t.Fatal(err)
	}
}

func TestInvariantsAfterMixedHistory(t *testing.T) {
	ix, h := newTestIndex(t, Config{InitialDepth: 2})
	rng := rand.New(rand.NewSource(5))
	for step := 0; step < 40000; step++ {
		id := uint64(rng.Intn(4000))
		var key []byte
		if id%2 == 0 {
			key = k64(id)
		} else {
			key = []byte(fmt.Sprintf("key-%d-%d", id, id%13))
		}
		switch rng.Intn(3) {
		case 0:
			val := make([]byte, 8+rng.Intn(200))
			rng.Read(val)
			if err := h.Insert(key, val); err != nil {
				t.Fatal(err)
			}
		case 1:
			val := make([]byte, 8+rng.Intn(200))
			rng.Read(val)
			if _, err := h.Update(key, val); err != nil {
				t.Fatal(err)
			}
		case 2:
			if _, err := h.Delete(key); err != nil {
				t.Fatal(err)
			}
		}
	}
	if err := ix.CheckInvariants(h.c); err != nil {
		t.Fatal(err)
	}
}

func TestInvariantsAfterMerge(t *testing.T) {
	ix, h := newTestIndex(t, Config{InitialDepth: 2})
	for i := uint64(0); i < 20000; i++ {
		if err := h.Insert(k64(i), k64(i)); err != nil {
			t.Fatal(err)
		}
	}
	for i := uint64(0); i < 20000; i++ {
		h.Delete(k64(i))
	}
	for i := uint64(0); i < 20000; i += 2 {
		h.TryMerge(k64(i))
	}
	if err := ix.CheckInvariants(h.c); err != nil {
		t.Fatal(err)
	}
}

func TestInvariantsAfterConcurrentChurn(t *testing.T) {
	ix, h0 := newTestIndex(t, Config{InitialDepth: 1, MaxTxRetries: 2})
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			h := ix.NewHandle(nil)
			defer h.Close()
			rng := rand.New(rand.NewSource(int64(w)))
			base := uint64(w * 10000)
			for i := 0; i < 6000; i++ {
				k := base + uint64(rng.Intn(2000))
				switch rng.Intn(3) {
				case 0, 1:
					if err := h.Insert(k64(k), k64(k)); err != nil {
						t.Error(err)
						return
					}
				default:
					if _, err := h.Delete(k64(k)); err != nil {
						t.Error(err)
						return
					}
				}
			}
		}(w)
	}
	wg.Wait()
	if err := ix.CheckInvariants(h0.c); err != nil {
		t.Fatal(err)
	}
}

func TestInvariantsAfterRecovery(t *testing.T) {
	pool, ix, h := openFresh(t, 0, Config{InitialDepth: 2})
	for i := uint64(0); i < 15000; i++ {
		if err := h.Insert(k64(i), k64(i)); err != nil {
			t.Fatal(err)
		}
	}
	for i := uint64(0); i < 15000; i += 3 {
		h.Delete(k64(i))
	}
	if err := ix.CheckInvariants(h.c); err != nil {
		t.Fatalf("pre-crash: %v", err)
	}
	pool.Crash()
	ix2, _, err := Recover(pool.NewCtx(), pool, Config{})
	if err != nil {
		t.Fatal(err)
	}
	if err := ix2.CheckInvariants(ix2.pool.NewCtx()); err != nil {
		t.Fatalf("post-recovery: %v", err)
	}
}
