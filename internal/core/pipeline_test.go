package core

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"sync"
	"testing"
)

// Pipelined batches from many workers must be as correct as individual
// calls, including batches that mix mutations (splits/doubling happen
// mid-batch).
func TestConcurrentBatches(t *testing.T) {
	concurrentBatches(t, k64, func(k uint64) []byte { return k64(k * 3) })
}

// The same with 16-byte keys and 64-byte values, out of line: the record
// stage and the probe prefetch then run on every request, reading bucket
// and hint words that other workers' splits and doublings rewrite.
func TestConcurrentBatchesOutOfLine(t *testing.T) {
	concurrentBatches(t,
		func(k uint64) []byte { return []byte(fmt.Sprintf("okey-%011d", k)) },
		func(k uint64) []byte { return []byte(fmt.Sprintf("%064d", k*3)) })
}

// concurrentBatches runs six workers that each insert their own keys in
// batches of 64 and read every batch back, pipelined.
func concurrentBatches(t *testing.T, key, val func(k uint64) []byte) {
	ix, _ := newTestIndex(t, Config{InitialDepth: 2, PipelineDepth: 4})
	const workers, batches, batchLen = 6, 40, 64
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			h := ix.NewHandle(nil)
			defer h.Close()
			base := uint64(w * batches * batchLen)
			ops := make([]BatchOp, batchLen)
			for b := 0; b < batches; b++ {
				for i := range ops {
					k := base + uint64(b*batchLen+i)
					ops[i] = BatchOp{Kind: OpInsert, Key: key(k), Value: val(k)}
				}
				h.ExecBatch(ops)
				for i := range ops {
					if ops[i].Err != nil {
						t.Error(ops[i].Err)
						return
					}
				}
				// Read the batch back, pipelined.
				for i := range ops {
					ops[i] = BatchOp{Kind: OpSearch, Key: ops[i].Key}
				}
				h.ExecBatch(ops)
				for i := range ops {
					if !ops[i].Found {
						t.Errorf("worker %d batch %d op %d not found", w, b, i)
						return
					}
					if want := val(base + uint64(b*batchLen+i)); !bytes.Equal(ops[i].Result, want) {
						t.Errorf("worker %d: wrong value %q, want %q", w, ops[i].Result, want)
						return
					}
				}
			}
		}(w)
	}
	wg.Wait()
	if got, want := ix.Len(), workers*batches*batchLen; got != want {
		t.Fatalf("len = %d, want %d", got, want)
	}
	if err := ix.CheckInvariants(ix.pool.NewCtx()); err != nil {
		t.Fatal(err)
	}
}

// Mixed-kind batches must report per-op outcomes correctly.
func TestBatchMixedKinds(t *testing.T) {
	_, h := newTestIndex(t, Config{})
	for i := uint64(0); i < 100; i++ {
		if err := h.Insert(k64(i), k64(i)); err != nil {
			t.Fatal(err)
		}
	}
	ops := []BatchOp{
		{Kind: OpSearch, Key: k64(5)},
		{Kind: OpDelete, Key: k64(5)},
		{Kind: OpSearch, Key: k64(5)},
		{Kind: OpUpdate, Key: k64(6), Value: k64(66)},
		{Kind: OpUpdate, Key: k64(9999), Value: k64(1)},
		{Kind: OpInsert, Key: k64(200), Value: k64(201)},
		{Kind: OpSearch, Key: k64(200)},
	}
	h.ExecBatch(ops)
	if !ops[0].Found || !ops[1].Found || ops[2].Found {
		t.Fatalf("delete sequencing: %v %v %v", ops[0].Found, ops[1].Found, ops[2].Found)
	}
	if !ops[3].Found || ops[4].Found {
		t.Fatalf("update outcomes: %v %v", ops[3].Found, ops[4].Found)
	}
	if ops[5].Err != nil || !ops[6].Found {
		t.Fatalf("insert/search: %v %v", ops[5].Err, ops[6].Found)
	}
	if got := binary.LittleEndian.Uint64(ops[6].Result); got != 201 {
		t.Fatalf("value %d", got)
	}
}

func TestBatchEmptyAndSingle(t *testing.T) {
	_, h := newTestIndex(t, Config{PipelineDepth: 8})
	h.ExecBatch(nil)
	ops := []BatchOp{{Kind: OpInsert, Key: k64(1), Value: k64(2)}}
	h.ExecBatch(ops)
	if ops[0].Err != nil {
		t.Fatal(ops[0].Err)
	}
	v, ok, _ := h.Search(k64(1), nil)
	if !ok || binary.LittleEndian.Uint64(v) != 2 {
		t.Fatal("single-op batch lost")
	}
}
