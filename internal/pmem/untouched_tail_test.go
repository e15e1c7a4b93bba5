package pmem_test

import (
	"encoding/binary"
	"testing"

	"spash/internal/core"
	"spash/internal/pmem"
	"spash/internal/shard"
)

// TestCrashRecoverWithUntouchedTail: an index that filled only the head
// of its device survives a power failure and recovery, and the scans
// that walk the whole pool-sized segment registry (invariants, Fsck) read
// the never-written tail as the zeroes it is. Under eADR every insert
// survives; under ADR the ones still dirty in the cache may not, but
// what survives reads back as written.
func TestCrashRecoverWithUntouchedTail(t *testing.T) {
	for _, mode := range []pmem.Mode{pmem.EADR, pmem.ADR} {
		t.Run(mode.String(), func(t *testing.T) {
			const n = 2000
			platform := pmem.Config{PoolSize: 64 << 20, Mode: mode, CacheSize: 1 << 20}
			units, err := shard.OpenAll(1, platform, core.Config{InitialDepth: 2})
			if err != nil {
				t.Fatal(err)
			}
			u := units[0]
			key := func(i int) []byte { return binary.LittleEndian.AppendUint64(nil, uint64(i)) }
			h := u.Ix.NewHandle(u.Ctx)
			for i := 0; i < n; i++ {
				if err := h.Insert(key(i), key(i*3)); err != nil {
					t.Fatalf("insert %d: %v", i, err)
				}
			}
			h.Close()
			u.Ctx.Release()
			pool := u.Pool
			tail := pool.Size() - pmem.XPLineSize
			for a := tail; a < pool.Size(); a += 8 {
				if w := pool.Peek(a); w != 0 {
					t.Fatalf("the last XPLine was written (word %#x = %#x); the test needs an untouched tail", a, w)
				}
			}

			pool.Crash()
			units, err = shard.RecoverAll([]*pmem.Pool{pool}, core.Config{InitialDepth: 2})
			if err != nil {
				t.Fatalf("RecoverAll: %v", err)
			}
			u = units[0]
			defer u.Ctx.Release()
			if err := u.Ix.CheckInvariants(u.Ctx); err != nil {
				t.Fatalf("invariants after recovery: %v", err)
			}
			h = u.Ix.NewHandle(u.Ctx)
			defer h.Close()
			rep, err := h.Fsck(false)
			if err != nil || !rep.Clean() {
				t.Fatalf("Fsck after recovery: err %v, faults %v", err, rep.Faults)
			}
			for i := 0; i < n; i++ {
				got, ok, err := h.Search(key(i), nil)
				if mode == pmem.ADR && err == nil && !ok {
					continue
				}
				if err != nil || !ok || string(got) != string(key(i*3)) {
					t.Fatalf("key %d after recovery: %x ok=%v err=%v", i, got, ok, err)
				}
			}
		})
	}
}
