//go:build !race

package shard_test

import (
	"testing"

	"spash/internal/core"
	"spash/internal/shard"
)

// A steady-state batch over several shards allocates nothing: the
// partition lives in the first handle's scratch and each shard works on
// the caller's slice through an index list. (Not measurable under -race,
// where sync.Pool drops HTM descriptors at random.)
func TestSplitBatchDoesNotAllocate(t *testing.T) {
	const n, window = 2, 64
	units, err := shard.OpenAll(n, smallPlatform(), core.Config{InitialDepth: 2})
	if err != nil {
		t.Fatal(err)
	}
	hs := make([]*core.Handle, n)
	for s, u := range units {
		hs[s] = u.Ix.NewHandle(u.Ctx)
	}
	ops := make([]core.BatchOp, window)
	bufs := make([][]byte, window)
	for i := range ops {
		ops[i] = core.BatchOp{Kind: core.OpInsert, Key: key(i), Value: []byte("a value stored out of line, longer than a slot")}
		bufs[i] = make([]byte, 0, 64)
	}
	shard.SplitBatch(hs, ops)
	reads := func() {
		for i := range ops {
			ops[i] = core.BatchOp{Kind: core.OpSearch, Key: ops[i].Key, ResultBuf: bufs[i]}
		}
		shard.SplitBatch(hs, ops)
	}
	reads()
	if a := testing.AllocsPerRun(200, reads); a != 0 {
		t.Fatalf("a %d-GET batch over %d shards: %v allocs/run, want 0", window, n, a)
	}
	for i := range ops {
		if ops[i].Err != nil || !ops[i].Found {
			t.Fatalf("op %d: found %v err %v", i, ops[i].Found, ops[i].Err)
		}
	}
}
