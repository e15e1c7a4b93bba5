package server

import (
	"bytes"
	"fmt"
	"io"
	"testing"

	"spash"
	"spash/internal/pmem"
	"spash/internal/resp"
)

// A GET's value that outgrows its slot's 256-byte result buffer grows
// the slot, up to maxResbuf: the second window of such GETs renders every
// reply from the buffer it was handed.
func TestResultBuffersLearn(t *testing.T) {
	db, err := spash.Open(spash.Options{Shards: 2, Platform: pmem.Config{PoolSize: 32 << 20, CacheSize: 64 << 10}})
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()
	srv := New(db, Config{})
	c := &connState{srv: srv, wr: resp.NewWriter(io.Discard), sess: db.Session(), lane: srv.reg.Lane()}
	defer c.sess.Close()

	const window = 64
	keys := make([][]byte, window)
	for i := range keys {
		keys[i] = []byte(fmt.Sprintf("key-%04d", i))
		size := 1 << 10
		if i == 0 {
			size = 2 * maxResbuf // past the bound: served, never kept
		}
		if err := c.sess.Insert(keys[i], bytes.Repeat([]byte{byte(i)}, size)); err != nil {
			t.Fatal(err)
		}
	}
	runWindow := func() (reallocated int) {
		for _, k := range keys {
			c.queueOp(spash.OpGet, k, nil)
			c.plans = append(c.plans, plan{kind: planGet, n: 1})
		}
		ops := c.ops
		c.flush()
		for i := range ops {
			if !ops[i].Found || ops[i].Err != nil {
				t.Fatalf("GET %d: found %v err %v", i, ops[i].Found, ops[i].Err)
			}
			if &ops[i].Result[0] != &ops[i].ResultBuf[:1][0] {
				reallocated++
			}
		}
		return reallocated
	}
	if n := runWindow(); n != window {
		t.Fatalf("first window: %d of %d values outgrew their buffers, want all", n, window)
	}
	if n := runWindow(); n != 1 {
		t.Fatalf("second window: %d result buffers reallocated, want 1 (the value above maxResbuf)", n)
	}
	if got := cap(c.resbufs[0]); got > maxResbuf {
		t.Fatalf("slot 0 kept a %d-byte buffer, above the %d-byte bound", got, maxResbuf)
	}
}
