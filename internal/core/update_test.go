package core

import (
	"bytes"
	"fmt"
	"testing"

	"spash/internal/pmem"
)

// updateModes are the three concurrency protocols an update runs under;
// one lock stripe bit lets the lock modes start at depth 2 too.
var updateModes = []Config{
	{InitialDepth: 2},
	{InitialDepth: 2, Concurrency: ModeWriteLock, LockStripeBits: 1},
	{InitialDepth: 2, Concurrency: ModeRWLock, LockStripeBits: 1},
}

// valueOf returns the value word key's slot holds (0 when absent).
func valueOf(h *Handle, key []byte) uint64 {
	r := makeReq(key)
	_, e := h.ix.resolveRaw(r.h)
	idx, _, vw, _, _ := h.ix.locate(rawMem{h.ix.pool, h.c}, h.c, entrySeg(e), &r, false)
	if idx < 0 {
		return 0
	}
	return vw &^ hintMask
}

// mustRead fails t unless key reads back as want.
func mustRead(t *testing.T, h *Handle, key, want []byte) {
	t.Helper()
	got, ok, err := h.Search(key, nil)
	if err != nil || !ok || !bytes.Equal(got, want) {
		t.Fatalf("Search(%q) = %q, %v, %v; want %q", key, got, ok, err, want)
	}
}

// value returns an out-of-line value of n bytes for generation gen.
func value(gen, n int) []byte { return []byte(fmt.Sprintf("%0*d", n, gen)) }

// An update that can overwrite the old same-class record in place writes
// that record and nothing else: no fresh record is carved or written, and
// the slot keeps pointing at the old one. Its persistence steps are the
// in-place write's alone — one commit, or under a lock the record's
// header and payload words.
func TestInPlaceUpdateCarvesNothing(t *testing.T) {
	for _, cfg := range updateModes {
		t.Run(cfg.Concurrency.String(), func(t *testing.T) {
			pool, _, h := openFresh(t, pmem.EADR, cfg)
			key := []byte("an-out-of-line-key")
			if err := h.Insert(key, value(0, 24)); err != nil {
				t.Fatal(err)
			}
			vw := valueOf(h, key)
			for gen := 1; gen <= 3; gen++ {
				val := value(gen, 24)
				fp := &pmem.FaultPlan{}
				pool.ArmFault(fp)
				ok, err := h.Update(key, val)
				pool.DisarmFault()
				if !ok || err != nil {
					t.Fatalf("Update: %v, %v", ok, err)
				}
				want := int64(1)
				if cfg.Concurrency != ModeHTM {
					want = 1 + int64(len(val)+7)/8
				}
				if fp.Steps() != want {
					t.Fatalf("in-place update took %d persistence steps, want the in-place write's %d", fp.Steps(), want)
				}
				if got := valueOf(h, key); got != vw {
					t.Fatalf("value word %#x after an in-place update, want %#x", got, vw)
				}
				mustRead(t, h, key, val)
			}
		})
	}
}

// Updates that cannot overwrite in place — into another size class, from
// an inline value to a record — append a fresh record, and the old record
// goes back to the handle (the next block of its class is the old one).
// The HTM path pays one attempt that publishes nothing.
func TestClassChangingUpdateAppends(t *testing.T) {
	for _, cfg := range updateModes {
		t.Run(cfg.Concurrency.String(), func(t *testing.T) {
			ix, h := newTestIndex(t, cfg)
			key := []byte("an-out-of-line-key")
			if err := h.Insert(key, value(0, 24)); err != nil {
				t.Fatal(err)
			}
			prev := value(0, 24)
			for _, step := range []struct {
				val   []byte
				fresh bool // a new record is published
			}{
				{value(1, 72), true},   // 32 B → 128 B class
				{value(2, 24), true},   // and back
				{k64(3), false},        // to inline
				{value(4, 72), true},   // inline to a record
				{value(5, 100), false}, // same 128 B class: in place
			} {
				old := valueOf(h, key)
				explicits := ix.tm.Stats().Explicits
				if ok, err := h.Update(key, step.val); !ok || err != nil {
					t.Fatalf("Update to %d bytes: %v, %v", len(step.val), ok, err)
				}
				mustRead(t, h, key, step.val)
				now := valueOf(h, key)
				if fresh := !valueIsInline(now) && now != old; fresh != step.fresh {
					t.Fatalf("update to %d bytes: value word %#x → %#x, want a fresh record %v", len(step.val), old, now, step.fresh)
				}
				if !valueIsInline(old) && now != old {
					size := h.recordAllocSize(len(prev))
					addr, _, err := h.ah.Alloc(h.c, size)
					if err != nil || addr != wordPayload(old) {
						t.Fatalf("after the update the handle's next block is %#x (%v), want the old record %#x", addr, err, wordPayload(old))
					}
					h.ah.Free(h.c, addr, size)
				}
				if cfg.Concurrency == ModeHTM {
					want := int64(0)
					if step.fresh {
						want = 1
					}
					if got := ix.tm.Stats().Explicits - explicits; got != want {
						t.Fatalf("update to %d bytes: %d attempts that published nothing, want %d", len(step.val), got, want)
					}
				}
				prev = step.val
			}
			if ok, err := h.Update([]byte("an-absent-key-of-some-length"), value(6, 72)); ok || err != nil {
				t.Fatalf("Update of an absent key: %v, %v", ok, err)
			}
		})
	}
}

// Batched updates that need a fresh record report success, never the
// body's request for one.
func TestBatchedClassChangingUpdates(t *testing.T) {
	for _, cfg := range updateModes {
		t.Run(cfg.Concurrency.String(), func(t *testing.T) {
			_, h := newTestIndex(t, cfg)
			key := func(i int) []byte { return []byte(fmt.Sprintf("batched-key-%04d", i)) }
			const n = 64
			for i := 0; i < n; i++ {
				if err := h.Insert(key(i), value(i, 24)); err != nil {
					t.Fatal(err)
				}
			}
			vals := [][]byte{value(1, 72), value(2, 24), k64(3), value(4, 300)}
			ops := make([]BatchOp, n+1)
			for i := 0; i < n; i++ {
				ops[i] = BatchOp{Kind: OpUpdate, Key: key(i), Value: vals[i%len(vals)]}
			}
			ops[n] = BatchOp{Kind: OpUpdate, Key: key(n), Value: vals[0]} // absent
			h.ExecBatch(ops)
			for i := range ops {
				if ops[i].Err != nil || ops[i].Found != (i < n) {
					t.Fatalf("op %d: found %v, err %v", i, ops[i].Found, ops[i].Err)
				}
			}
			for i := 0; i < n; i++ {
				mustRead(t, h, key(i), vals[i%len(vals)])
			}
		})
	}
}
