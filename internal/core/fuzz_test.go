package core

import (
	"bytes"
	"fmt"
	"maps"
	"math/rand"
	"testing"

	"spash/internal/alloc"
	"spash/internal/pmem"
)

// FuzzInsertSearchDelete drives the index with arbitrary key/value
// bytes; the seed corpus runs in every normal `go test`, and
// `go test -fuzz=FuzzInsertSearchDelete ./internal/core` explores
// further.
func FuzzInsertSearchDelete(f *testing.F) {
	f.Add([]byte("key"), []byte("value"))
	f.Add([]byte{0}, []byte{})
	f.Add([]byte{0, 0, 0, 0, 0, 0, 0, 0}, []byte{1, 2, 3, 4, 5, 6, 7, 8})
	f.Add(bytes.Repeat([]byte{0xFF}, 8), bytes.Repeat([]byte{0xAA}, 200))
	f.Add(bytes.Repeat([]byte{7}, 100), bytes.Repeat([]byte{9}, 1024))

	pool := pmem.New(pmem.Config{PoolSize: 256 << 20})
	c := pool.NewCtx()
	al, err := alloc.New(c, pool)
	if err != nil {
		f.Fatal(err)
	}
	ix, err := Open(c, pool, al, Config{InitialDepth: 2})
	if err != nil {
		f.Fatal(err)
	}
	h := ix.NewHandle(c)
	f.Fuzz(func(t *testing.T, key, val []byte) {
		if len(key) == 0 || len(key) > MaxKVLen || len(val) > MaxKVLen {
			if err := h.Insert(key, val); err == nil && (len(key) == 0 || len(key) > MaxKVLen || len(val) > MaxKVLen) {
				t.Fatal("oversized/empty key accepted")
			}
			return
		}
		if err := h.Insert(key, val); err != nil {
			t.Fatal(err)
		}
		got, ok, err := h.Search(key, nil)
		if err != nil || !ok || !bytes.Equal(got, val) {
			t.Fatalf("round trip: ok=%v err=%v", ok, err)
		}
		if ok, _ := h.Delete(key); !ok {
			t.Fatal("delete missed")
		}
		if _, ok, _ := h.Search(key, nil); ok {
			t.Fatal("present after delete")
		}
	})
}

// FuzzSlotCodec checks the compound-slot bit packing against arbitrary
// inputs.
func FuzzSlotCodec(f *testing.F) {
	f.Add(uint16(0), uint64(0), true)
	f.Add(uint16(0x1FFF), uint64(1)<<47, false)
	f.Fuzz(func(t *testing.T, fp uint16, p uint64, inline bool) {
		fp &= 0x1FFF
		p &= payload
		kw := makeKeyWord(inline, fp, p)
		if !keyOccupied(kw) || keyIsInline(kw) != inline || keyFP(kw) != fp || wordPayload(kw) != p {
			t.Fatalf("key word round trip: %#x", kw)
		}
		ofp := fp & 0x3FF
		idx := int(p % SlotsPerSegment)
		vw := makeValueWord(inline, p) | makeHint(ofp, idx)
		if !hintValid(vw) || hintFP(vw) != ofp || hintIdx(vw) != idx ||
			valueIsInline(vw) != inline || wordPayload(vw) != p {
			t.Fatalf("value word round trip: %#x", vw)
		}
	})
}

// FuzzExecBatch is the batch pipeline's differential check: a seeded
// stream of mixed batches — inline and out-of-line keys and values, a
// refused empty key now and then — runs through ExecBatch on one index
// and one operation at a time on a twin. Every result and error, and the
// final ForEach image, must agree.
func FuzzExecBatch(f *testing.F) {
	f.Add(int64(1), uint8(4), uint8(63))
	f.Add(int64(2), uint8(1), uint8(6))
	f.Add(int64(3), uint8(2), uint8(0))
	f.Add(int64(4), uint8(8), uint8(17))
	// Batches of at least twice the depth, at depths 4 and 8, where the
	// record stage runs several requests ahead: earlier requests of the
	// batch insert into, and split, buckets a later request's stage has
	// already read. Instrumented, each of these four ran the stage early
	// for 300 to 1 400 requests, of which 2 to 11 found their segment
	// split and 25 to 123 their bucket changed before they executed.
	f.Add(int64(5), uint8(3), uint8(15))
	f.Add(int64(6), uint8(3), uint8(63))
	f.Add(int64(7), uint8(7), uint8(31))
	f.Add(int64(8), uint8(7), uint8(63))
	f.Fuzz(func(t *testing.T, seed int64, pd, size uint8) {
		cfg := Config{InitialDepth: 1, PipelineDepth: 1 + int(pd%8)}
		twin := func() *Handle {
			pool := pmem.New(pmem.Config{PoolSize: 16 << 20, CacheSize: 64 << 10})
			c := pool.NewCtx()
			al, err := alloc.New(c, pool)
			if err != nil {
				t.Fatal(err)
			}
			ix, err := Open(c, pool, al, cfg)
			if err != nil {
				t.Fatal(err)
			}
			return ix.NewHandle(c)
		}
		hB, hS := twin(), twin()
		rng := rand.New(rand.NewSource(seed))
		key := func(id int) []byte {
			switch id % 4 {
			case 0:
				return k64(uint64(id)) // inline
			case 1:
				return []byte(fmt.Sprintf("key-%012d", id))
			case 2:
				return []byte(fmt.Sprintf("a-key-whose-record-spans-two-lines-%030d", id))
			}
			if id%16 == 3 {
				return nil // refused: empty
			}
			return []byte(fmt.Sprintf("k%d", id))
		}
		val := func(gen int) []byte {
			switch gen % 4 {
			case 0:
				return k64(uint64(gen)) // inline
			case 1:
				return []byte(fmt.Sprintf("%024d", gen))
			case 2:
				return []byte(fmt.Sprintf("%072d", gen))
			}
			return []byte(fmt.Sprintf("%300d", gen))
		}
		n := 1 + int(size)%64
		ops := make([]BatchOp, n)
		for b := 0; b < 30; b++ {
			for i := range ops {
				id, gen := rng.Intn(400), rng.Intn(1000)
				switch k := rng.Intn(10); {
				case k < 4:
					ops[i] = BatchOp{Kind: OpSearch, Key: key(id)}
				case k < 6:
					ops[i] = BatchOp{Kind: OpUpdate, Key: key(id), Value: val(gen)}
				case k < 9:
					ops[i] = BatchOp{Kind: OpInsert, Key: key(id), Value: val(gen)}
				default:
					ops[i] = BatchOp{Kind: OpDelete, Key: key(id)}
				}
			}
			want := append([]BatchOp(nil), ops...)
			for i := range want {
				execSingle(t, hS, &want[i])
			}
			hB.ExecBatch(ops)
			for i := range ops {
				if !sameOutcome(ops[i], want[i]) {
					t.Fatalf("batch %d op %d (%v %q): batched %q %v %v, single %q %v %v", b, i, ops[i].Kind, ops[i].Key,
						ops[i].Result, ops[i].Found, ops[i].Err, want[i].Result, want[i].Found, want[i].Err)
				}
			}
		}
		image := func(h *Handle) map[string]string {
			m := map[string]string{}
			if err := h.ix.ForEach(h, func(k, v []byte) bool {
				m[string(k)] = string(v)
				return true
			}); err != nil {
				t.Fatal(err)
			}
			return m
		}
		if got, want := image(hB), image(hS); !maps.Equal(got, want) {
			t.Fatalf("ForEach images differ: %d entries batched, %d single", len(got), len(want))
		}
	})
}
