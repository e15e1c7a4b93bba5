package pmem_test

import (
	"fmt"
	"math/rand"
	"testing"

	"spash/internal/alloc"
	"spash/internal/core"
	"spash/internal/pmem"
)

// The line memo's gate, in the style of alloc-gate: how many cache sets
// an index operation enters is a deterministic count, so it is pinned
// here instead of being inferred from a wall clock. Two fixed seeded
// streams run over 4 000 records with 16-byte keys and 64-byte values
// (both out of line: a Get walks bucket, key record, bucket, value
// record): 50 ExecBatch calls of 64 Gets, and 3 000 single operations,
// two Gets to one Update. The parent's counts were captured by running
// this file on 9664e01 with the counter added to its lookup; the memo
// must keep the batched stream at or under half of them, the single-op
// stream at or under them, and neither above what it measured when it
// landed — a change that sends accesses back into the sets fails here.
// The pins were lowered to what the memo measures at 128 slots, with the
// record stage running as soon as a bucket has arrived.
func TestSetEntriesPerOperation(t *testing.T) {
	const (
		records = 4000

		parentBatch, parentSingle = 52055, 18288 // 16.27 and 6.10 per op
		pinnedBatch, pinnedSingle = 15377, 13214 // 4.81 and 4.40 per op
	)
	pool := pmem.New(pmem.Config{PoolSize: 32 << 20})
	c := pool.NewCtx()
	al, err := alloc.New(c, pool)
	if err != nil {
		t.Fatal(err)
	}
	ix, err := core.Open(c, pool, al, core.Config{})
	if err != nil {
		t.Fatal(err)
	}
	h := ix.NewHandle(c)
	key := func(id int) []byte { return []byte(fmt.Sprintf("key-%012d", id)) }
	val := func(gen int) []byte { return []byte(fmt.Sprintf("%064d", gen)) }
	for id := 0; id < records; id++ {
		if err := h.Insert(key(id), val(id)); err != nil {
			t.Fatal(err)
		}
	}
	rng := rand.New(rand.NewSource(24))
	// entered runs f and returns how many sets it entered.
	entered := func(f func()) uint64 {
		before := pmem.SetEntries(c)
		f()
		return pmem.SetEntries(c) - before
	}

	ops := make([]core.BatchOp, 64)
	bufs := make([][64]byte, len(ops))
	batch := entered(func() {
		for b := 0; b < 50; b++ {
			for i := range ops {
				ops[i] = core.BatchOp{Kind: core.OpSearch, Key: key(rng.Intn(records)), ResultBuf: bufs[i][:0]}
			}
			h.ExecBatch(ops)
			for i := range ops {
				if ops[i].Err != nil || !ops[i].Found {
					t.Fatalf("batch %d Get %d: found %v, err %v", b, i, ops[i].Found, ops[i].Err)
				}
			}
		}
	})
	single := entered(func() {
		var dst [64]byte
		for i := 0; i < 3000; i++ {
			id := rng.Intn(records)
			if i%3 == 2 {
				if ok, err := h.Update(key(id), val(i)); err != nil || !ok {
					t.Fatalf("op %d Update: found %v, err %v", i, ok, err)
				}
			} else if _, ok, err := h.Search(key(id), dst[:0]); err != nil || !ok {
				t.Fatalf("op %d Get: found %v, err %v", i, ok, err)
			}
		}
	})
	t.Logf("set entries: %d over 3200 batched Gets (%.2f/op, parent %.2f), %d over 3000 single ops (%.2f/op, parent %.2f)",
		batch, float64(batch)/3200, float64(parentBatch)/3200, single, float64(single)/3000, float64(parentSingle)/3000)
	if batch > pinnedBatch || 2*batch > parentBatch {
		t.Errorf("batched Gets entered %d sets, want at most %d (pinned) and %d (half the parent's %d)",
			batch, pinnedBatch, parentBatch/2, parentBatch)
	}
	if single > pinnedSingle || single > parentSingle {
		t.Errorf("single operations entered %d sets, want at most %d (pinned) and the parent's %d",
			single, pinnedSingle, parentSingle)
	}
}
