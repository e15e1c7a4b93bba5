package htm

import (
	"runtime"
	"sync/atomic"

	"spash/internal/pmem"
)

// ITxn is an irrevocable transaction: instead of optimistic
// validation it takes the stripe lock of every line it touches (reads
// included) and holds them until Done. It therefore never aborts and
// is mutually exclusive, line by line, with committing optimistic
// transactions — the property hardware gets for free from instant
// commits, and which a software TM must provide explicitly for its
// lock-elision fallback path: without it, a fallback's raw reads could
// observe the half-published write set of a transaction that validated
// just before the fallback lock was taken.
//
// Deadlock freedom: optimistic commits only try-lock (they abort and
// release on contention), and irrevocable transactions are serialised
// among themselves by a TM-wide mutex, so an ITxn spinning on a stripe
// always waits on a finite commit. The body itself must not call
// TM.Bump*: a bumping store to a line the ITxn holds (or one aliasing
// it) would spin on the ITxn's own stripe lock.
type ITxn struct {
	tm   *TM
	ctx  *pmem.Ctx
	pool *pmem.Pool
	held []uint64 // stripe indices
	// heldVer/heldDirty record each held stripe's pre-lock version and
	// whether it was written (written stripes release with a bumped
	// version so optimists conflict; read-only stripes restore their
	// version to avoid spurious aborts).
	heldVer   []uint64
	heldDirty []bool
}

// Irrevocable runs body as an irrevocable transaction. body must
// perform all shared-word access through the ITxn.
func (tm *TM) Irrevocable(c *pmem.Ctx, pool *pmem.Pool, body func(it *ITxn) error) error {
	tm.irrevMu.Lock()
	defer tm.irrevMu.Unlock()
	tm.irrevocable.Add(1)
	it := &ITxn{tm: tm, ctx: c, pool: pool}
	// Release on panic too: a body unwinding (e.g. a poisoned-media
	// machine check) must not leave stripe locks held, or every later
	// transaction touching those words would spin forever.
	defer it.releaseAll()
	return body(it)
}

// acquire locks the stripe for key if not already held and returns its
// index in the held set.
func (it *ITxn) acquire(key uintptr) int {
	si := it.tm.stripeFor(key)
	for i, h := range it.held {
		if h == si {
			return i
		}
	}
	s := &it.tm.vers[si]
	var v uint64
	for {
		v = s.Load()
		if v&1 == 0 && s.CompareAndSwap(v, v|1) {
			break
		}
		// The holder may have unwound at an injected power cut without
		// releasing; observe the cut rather than spinning forever.
		it.pool.CheckLive()
		runtime.Gosched()
	}
	it.held = append(it.held, si)
	it.heldVer = append(it.heldVer, v)
	it.heldDirty = append(it.heldDirty, false)
	return len(it.held) - 1
}

func (it *ITxn) releaseAll() {
	var wv uint64
	for _, d := range it.heldDirty {
		if d {
			wv = it.tm.clock.Add(1)
			break
		}
	}
	for i, si := range it.held {
		if it.heldDirty[i] {
			it.tm.vers[si].Store(wv << 1)
		} else {
			it.tm.vers[si].Store(it.heldVer[i])
		}
	}
	it.held, it.heldVer, it.heldDirty = nil, nil, nil
}

// Load reads a PM word under the stripe lock.
func (it *ITxn) Load(addr uint64) uint64 {
	it.acquire(uintptr(addr))
	return it.pool.Load64(it.ctx, addr)
}

// LoadLine reads the eight words of the PM cacheline holding addr under
// the line's stripe lock, taken once: Pool.LoadLine's accounting, one
// access for the line.
func (it *ITxn) LoadLine(addr uint64) pmem.Line {
	it.acquire(uintptr(addr))
	return it.pool.LoadLine(it.ctx, addr)
}

// Read copies len(dst) bytes of PM starting at addr into dst, taking the
// stripe lock of each line before copying it: Pool.Read's accounting,
// one access per cacheline.
func (it *ITxn) Read(addr uint64, dst []byte) {
	end := addr + uint64(len(dst))
	for a := addr; a < end; {
		next := min(a&^(pmem.CachelineSize-1)+pmem.CachelineSize, end)
		it.acquire(uintptr(a))
		it.pool.Read(it.ctx, a, dst[a-addr:next-addr])
		a = next
	}
}

// Store writes a PM word under the stripe lock; the write becomes
// conflicting-visible to optimistic transactions at release.
func (it *ITxn) Store(addr uint64, v uint64) {
	i := it.acquire(uintptr(addr))
	it.heldDirty[i] = true
	it.pool.Store64(it.ctx, addr, v)
}

// LoadVol reads a volatile word under the stripe lock.
func (it *ITxn) LoadVol(p *uint64) uint64 {
	it.acquire(ptrKey(p))
	it.ctx.ChargeDRAM(1)
	return atomic.LoadUint64(p)
}

// StoreVol writes a volatile word under the stripe lock.
func (it *ITxn) StoreVol(p *uint64, v uint64) {
	i := it.acquire(ptrKey(p))
	it.heldDirty[i] = true
	it.ctx.ChargeDRAM(1)
	atomic.StoreUint64(p, v)
}
