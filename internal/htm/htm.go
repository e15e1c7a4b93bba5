// Package htm emulates Restricted Transactional Memory (Intel TSX) in
// software, providing the programming model the Spash paper builds its
// concurrency control on (§II-C2, §IV).
//
// Real RTM makes the writes of a transaction atomically visible in the
// CPU cache, aborts on data conflicts, and aborts when the read/write
// set exceeds the private cache capacity. On an eADR platform,
// visibility implies durability, which is what lets the paper run a
// persistent index lock-free. Go exposes none of this, so this package
// implements the same contract with a TL2-style software transactional
// memory over the simulated persistent memory (package pmem) and over
// ordinary volatile words (the DRAM directory):
//
//   - versioned stripes keyed by cacheline, RTM's unit of conflict
//     detection (two words of one 64 B line always share a stripe),
//     with a global version clock,
//   - buffered writes applied atomically at commit under striped
//     locks, so concurrent transactions (and raw readers that follow
//     the validation protocol) never observe partial transactions,
//   - Conflict aborts on validation failure or stripe-lock contention,
//   - Capacity aborts when a transaction's footprint exceeds the
//     configured budget (motivating the paper's staged doubling),
//   - Explicit aborts for the two-phase protocol's validation step.
//
// Like hardware transactions, a transaction body may be executed
// several times; it must be free of side effects other than tx.Load*
// and tx.Store*.
//
// Commit serialisation on hot stripes is accounted to a vsync.Group,
// so the virtual-time model sees the (small) coherence cost of many
// cores committing to the same cacheline.
package htm

import (
	"errors"
	"sync"
	"sync/atomic"
	"unsafe"

	"spash/internal/hostpf"
	"spash/internal/pmem"
	"spash/internal/vsync"
)

// Code classifies the outcome of a transaction attempt, mirroring the
// RTM abort status word.
type Code int

const (
	// Committed: the transaction's writes are visible (and, under
	// eADR, durable).
	Committed Code = iota
	// Conflict: a data conflict with a concurrent transaction or a
	// non-transactional bumping store; retrying may succeed.
	Conflict
	// Capacity: the read or write set exceeded the hardware budget;
	// retrying the same transaction will abort again.
	Capacity
	// Explicit: the body requested an abort (xabort), e.g. because
	// its preparation-phase assumptions no longer hold.
	Explicit
)

func (c Code) String() string {
	switch c {
	case Committed:
		return "committed"
	case Conflict:
		return "conflict"
	case Capacity:
		return "capacity"
	default:
		return "explicit"
	}
}

// ErrAbort is returned by a transaction body to request an explicit
// abort. Bodies may also return it wrapped to carry a reason.
var ErrAbort = errors.New("htm: explicit abort")

// Virtual-time costs of the transactional machinery.
const (
	beginCostNS  = 15
	commitBaseNS = 30
	// commitPerLineNS is what retiring one unit of the write set adds to
	// a commit: RTM drains its write set from L1 a cacheline at a time,
	// so a run of buffered PM words on one line is one unit, as is each
	// volatile word.
	commitPerLineNS  = 8
	stripeSerialBase = 25
)

// Config sizes the emulated hardware.
type Config struct {
	// Stripes is the number of version stripes (power of two), one per
	// tracked cacheline. Distinct lines hashing to one stripe conflict
	// falsely, like addresses aliasing in a hardware tracking structure.
	Stripes int
	// WriteCapacityWords bounds a transaction's write set, modelling
	// the L1-sized RTM write set (48 KB ≈ 6144 words on the paper's
	// testbed).
	WriteCapacityWords int
	// ReadCapacityWords bounds the read set (RTM tracks reads in L2;
	// the default models 1.25 MB ≈ 160K words).
	ReadCapacityWords int
}

func (c Config) withDefaults() Config {
	if c.Stripes == 0 {
		c.Stripes = 1 << 18
	}
	if c.WriteCapacityWords == 0 {
		c.WriteCapacityWords = 6144
	}
	if c.ReadCapacityWords == 0 {
		c.ReadCapacityWords = 160 << 10
	}
	return c
}

// TM is a transactional memory domain. All transactions that may
// conflict must share one TM.
type TM struct {
	cfg Config
	// vers holds one version word per stripe: bit 0 = locked, bits
	// 63..1 = version. Every transactional load reads it, so the words
	// are packed; serial, the stripe's accumulated commit serialisation
	// for the virtual-time model, is touched only at commit and lives
	// apart.
	vers   []atomic.Uint64
	serial []atomic.Int64
	mask   uint64
	// irrevMu serialises irrevocable transactions (see irrevocable.go).
	irrevMu sync.Mutex
	// Group receives commit serialisation totals for the virtual-time
	// model; may be nil.
	Group *vsync.Group

	// The words above are read by every transaction and written by none.
	// clock, TL2's global version clock, is read at every begin and
	// written by every publishing commit; the counters are written by
	// every attempt. Each group has a host line of its own, so a commit
	// on one core does not evict the configuration and slice headers
	// every load on another core reads, and a read-only commit's counter
	// does not evict the clock.
	_     [7]uint64
	clock atomic.Uint64
	_     [7]uint64

	commits     atomic.Int64
	conflicts   atomic.Int64
	capacities  atomic.Int64
	explicits   atomic.Int64
	irrevocable atomic.Int64
}

// Stats are the domain's cumulative transaction counters.
type Stats struct {
	Commits     int64
	Conflicts   int64
	Capacities  int64
	Explicits   int64
	Irrevocable int64
}

// Stats returns the counters.
func (tm *TM) Stats() Stats {
	return Stats{
		Commits:     tm.commits.Load(),
		Conflicts:   tm.conflicts.Load(),
		Capacities:  tm.capacities.Load(),
		Explicits:   tm.explicits.Load(),
		Irrevocable: tm.irrevocable.Load(),
	}
}

// New creates a transactional memory domain.
func New(cfg Config) *TM {
	cfg = cfg.withDefaults()
	n := 1
	for n < cfg.Stripes {
		n <<= 1
	}
	return &TM{
		cfg:    cfg,
		vers:   make([]atomic.Uint64, n),
		serial: make([]atomic.Int64, n),
		mask:   uint64(n - 1),
	}
}

// lineShift turns a location key into its cacheline number.
const lineShift = 6

// stripeFor maps a location key to the index of its stripe. PM
// locations use the pool offset; volatile locations use the word's
// address. The stripe is chosen by the key's cacheline (key >> 6), so
// the words of one line conflict with each other exactly as under RTM —
// callers keep hot words apart by padding them to a line — and line
// numbers are hashed so neighbouring lines spread across the table.
func (tm *TM) stripeFor(key uintptr) uint64 {
	x := uint64(key) >> lineShift
	x ^= x >> 17
	x *= 0x9E3779B97F4A7C15
	return (x >> 16) & tm.mask
}

// Hint asks the host to start fetching what a transactional access to
// the PM word at addr will read: its line's version word and, through
// pool.Hint, the data line and cache set. Like pool.Hint it changes no
// state and accepts any address.
func (tm *TM) Hint(pool *pmem.Pool, addr uint64) {
	hostpf.Line(unsafe.Pointer(&tm.vers[tm.stripeFor(uintptr(addr))]))
	pool.Hint(addr)
}

// HintVol is Hint for a volatile word.
func (tm *TM) HintVol(p *uint64) {
	hostpf.Line(unsafe.Pointer(&tm.vers[tm.stripeFor(ptrKey(p))]))
	hostpf.Line(unsafe.Pointer(p))
}

// conflictSignal unwinds a doomed transaction body (the software
// analogue of the hardware jumping back to xbegin).
type conflictSignal struct{}

type wsEntry struct {
	key  uintptr // stripe key
	addr uint64  // PM address (if pm)
	ptr  *uint64 // volatile word (if !pm)
	val  uint64
	pm   bool
}

type rsEntry struct {
	stripe uint64
	ver    uint64
}

// Txn is an in-flight transaction. It is valid only inside the body
// passed to TM.Run.
type Txn struct {
	tm   *TM
	ctx  *pmem.Ctx
	pool *pmem.Pool
	rv   uint64
	rs   []rsEntry
	ws   []wsEntry
	// nread counts transactional loads: the read footprint in words that
	// ReadCapacityWords bounds, while rs holds one entry per line run.
	nread int
	// cur is the version word of the line the previous read entered
	// (curLine) and curVer the version recorded for it in rs (enter).
	cur     *atomic.Uint64
	curLine uintptr
	curVer  uint64
	// locked is commit's scratch: the stripes it holds.
	locked []uint64
	// run is commit's scratch: the words of the line being published.
	run [pmem.CachelineSize / 8]pmem.Word
}

// Run executes body as one transaction attempt on behalf of worker c.
// It returns Committed and body's nil error on success; Conflict or
// Capacity on hardware-style aborts (body effects discarded); Explicit
// (with body's error) when the body returned non-nil. Run does not
// retry: callers implement their retry/fallback policy, as with real
// RTM.
//
// PM access inside body must go through tx.Load/tx.Store (pool
// supplied per call so one TM can span pools); volatile shared words
// through tx.LoadVol/tx.StoreVol. Reading locations written by
// concurrent non-transactional code is safe only if those writers use
// TM.BumpStore64 / TM.BumpCASVol etc., which advance stripe versions.
func (tm *TM) Run(c *pmem.Ctx, pool *pmem.Pool, body func(tx *Txn) error) (code Code, err error) {
	tx := txnPool.Get().(*Txn)
	tx.tm, tx.ctx, tx.pool = tm, c, pool
	tx.rs = tx.rs[:0]
	tx.ws = tx.ws[:0]
	tx.nread, tx.cur = 0, nil
	tx.rv = tm.clock.Load()
	c.Charge(beginCostNS)

	defer func() {
		if r := recover(); r != nil {
			switch r.(type) {
			case conflictSignal:
				tm.conflicts.Add(1)
				code, err = Conflict, nil
			case capacitySignal:
				tm.capacities.Add(1)
				code, err = Capacity, nil
			default:
				panic(r)
			}
		}
		tx.tm = nil
		txnPool.Put(tx)
	}()

	if err := body(tx); err != nil {
		tm.explicits.Add(1)
		return Explicit, err
	}
	if !tx.commit() {
		tm.conflicts.Add(1)
		return Conflict, nil
	}
	tm.commits.Add(1)
	return Committed, nil
}

func (tx *Txn) abortConflict() {
	panic(conflictSignal{})
}

// Load reads a 64-bit PM word transactionally.
func (tx *Txn) Load(addr uint64) uint64 {
	return tx.load(uintptr(addr), addr, nil, true)
}

// LoadVol reads a volatile 64-bit word transactionally.
func (tx *Txn) LoadVol(p *uint64) uint64 {
	return tx.load(ptrKey(p), 0, p, false)
}

func (tx *Txn) load(key uintptr, addr uint64, ptr *uint64, pm bool) uint64 {
	// Read-own-writes.
	if v, ok := tx.buffered(key); ok {
		return v
	}
	if tx.nread >= tx.tm.cfg.ReadCapacityWords {
		panic(capacitySignal{})
	}
	tx.nread++
	s, v1 := tx.enter(key)
	var val uint64
	if pm {
		val = tx.pool.Load64(tx.ctx, addr)
	} else {
		val = atomic.LoadUint64(ptr)
		tx.ctx.ChargeDRAM(1)
	}
	tx.recheck(s, v1)
	return val
}

// enter returns the version word of key's cacheline and the version the
// read set holds for it, pre-checking the line when the previous access
// was to another one: loads that stay on a line skip the hash, the
// pre-check and the read-set append, never the re-validation after the
// data read.
func (tx *Txn) enter(key uintptr) (*atomic.Uint64, uint64) {
	if tx.cur == nil || key>>lineShift != tx.curLine {
		tx.preCheck(key)
	}
	return tx.cur, tx.curVer
}

// preCheck is the per-line version check every transactional read makes
// before it reads the line: the stripe of key's line must be unlocked and
// no newer than the transaction's read version. The version goes into the
// read set (one entry) and becomes the current line's.
func (tx *Txn) preCheck(key uintptr) {
	i := tx.tm.stripeFor(key)
	s := &tx.tm.vers[i]
	v := s.Load()
	if v&1 != 0 || v>>1 > tx.rv {
		tx.abortConflict()
	}
	tx.rs = append(tx.rs, rsEntry{i, v})
	tx.cur, tx.curLine, tx.curVer = s, key>>lineShift, v
}

// LoadLine reads the eight words of the PM cacheline holding addr
// transactionally, charged like Pool.LoadLine: one cache access, where a
// Load of each word is eight. The line is pre-checked once (one read-set
// entry, none when the previous access was to the same line), all eight
// words count against ReadCapacityWords, the version is re-checked once
// after the read, and words the transaction has stored read back
// buffered.
func (tx *Txn) LoadLine(addr uint64) pmem.Line {
	l, s, v := tx.readLine(addr)
	tx.recheck(s, v)
	return l
}

// readLine is LoadLine up to its re-check: the capacity count, the
// pre-check, the read and the buffered words; it returns the line with the
// version word and version the re-check compares.
func (tx *Txn) readLine(addr uint64) (l pmem.Line, s *atomic.Uint64, v uint64) {
	line := addr &^ (pmem.CachelineSize - 1)
	if tx.nread+len(l) > tx.tm.cfg.ReadCapacityWords {
		panic(capacitySignal{})
	}
	tx.nread += len(l)
	s, v = tx.enter(uintptr(line))
	l = tx.pool.LoadLine(tx.ctx, line)
	for _, w := range tx.ws {
		if w.pm && w.addr&^(pmem.CachelineSize-1) == line {
			l[(w.addr-line)/8] = w.val
		}
	}
	return l, s, v
}

// recheck aborts the transaction when version word s no longer reads v:
// the line changed since its pre-check.
func (tx *Txn) recheck(s *atomic.Uint64, v uint64) {
	if s.Load() != v {
		tx.abortConflict()
	}
}

// buffered returns the value the transaction has stored at key, if any.
func (tx *Txn) buffered(key uintptr) (uint64, bool) {
	for i := len(tx.ws) - 1; i >= 0; i-- {
		if tx.ws[i].key == key {
			return tx.ws[i].val, true
		}
	}
	return 0, false
}

// Read copies len(dst) bytes of PM starting at addr into dst
// transactionally, charged like Pool.Read: one access per cacheline, not
// one per word as a Load loop over the range would be. Each line's
// stripe version is checked once before the line is copied (with one
// poison check and one cache access) and again after the whole range is,
// every word counts against ReadCapacityWords, and words the transaction
// has stored read back buffered. A line whose words in the range are all
// buffered is not read at all, as Load would not read it.
func (tx *Txn) Read(addr uint64, dst []byte) {
	from := len(tx.rs)
	tx.copyLines(addr, dst)
	tx.validateFrom(from)
}

// copyLines is Read up to its validation: for each line of the range
// holding a word the transaction has not stored, the capacity count, the
// stripe pre-check (one read-set entry) and the copy; then the buffered
// words.
func (tx *Txn) copyLines(addr uint64, dst []byte) {
	end := addr + uint64(len(dst))
	for a := addr; a < end; {
		line := a &^ (pmem.CachelineSize - 1)
		next := min(line+pmem.CachelineSize, end)
		chunk := dst[a-addr : next-addr]
		if k := tx.unbuffered(a, next); k > 0 {
			if tx.nread+k > tx.tm.cfg.ReadCapacityWords {
				panic(capacitySignal{})
			}
			tx.nread += k
			tx.preCheck(uintptr(line))
			tx.pool.Read(tx.ctx, a, chunk)
		}
		if len(tx.ws) > 0 {
			tx.overlay(a, chunk)
		}
		a = next
	}
}

// unbuffered counts the words overlapping [a, next) that the transaction
// has not stored.
func (tx *Txn) unbuffered(a, next uint64) int {
	n := 0
	for w := a &^ 7; w < next; w += 8 {
		if _, ok := tx.buffered(uintptr(w)); !ok {
			n++
		}
	}
	return n
}

// overlay writes the bytes of every buffered PM word that fall in
// [a, a+len(dst)) into dst.
func (tx *Txn) overlay(a uint64, dst []byte) {
	end := a + uint64(len(dst))
	for _, w := range tx.ws {
		if !w.pm || w.addr+8 <= a || w.addr >= end {
			continue
		}
		for i := uint64(0); i < 8; i++ {
			if b := w.addr + i; b >= a && b < end {
				dst[b-a] = byte(w.val >> (8 * i))
			}
		}
	}
}

// validateFrom re-checks the stripe versions of the read-set entries from
// index from on, aborting when a line changed since its pre-check.
func (tx *Txn) validateFrom(from int) {
	for _, r := range tx.rs[from:] {
		tx.recheck(&tx.tm.vers[r.stripe], r.ver)
	}
}

// Store buffers a 64-bit PM store; it becomes visible (and durable
// under eADR) only if the transaction commits.
func (tx *Txn) Store(addr uint64, v uint64) {
	tx.store(uintptr(addr), addr, nil, true, v)
}

// StoreVol buffers a volatile 64-bit store.
func (tx *Txn) StoreVol(p *uint64, v uint64) {
	tx.store(ptrKey(p), 0, p, false, v)
}

// capacitySignal distinguishes capacity aborts from conflicts.
type capacitySignal struct{}

func (tx *Txn) store(key uintptr, addr uint64, ptr *uint64, pm bool, v uint64) {
	for i := len(tx.ws) - 1; i >= 0; i-- {
		if tx.ws[i].key == key {
			tx.ws[i].val = v
			return
		}
	}
	if len(tx.ws) >= tx.tm.cfg.WriteCapacityWords {
		panic(capacitySignal{})
	}
	tx.ws = append(tx.ws, wsEntry{key: key, addr: addr, ptr: ptr, val: v, pm: pm})
}

// commit implements the TL2 commit: lock write stripes, validate the
// read set, publish, bump versions.
func (tx *Txn) commit() bool {
	c := tx.ctx
	if len(tx.ws) == 0 {
		// Read-only: the per-load validation already established a
		// consistent snapshot at rv.
		c.Charge(commitBaseNS)
		return true
	}

	// Acquire stripe locks (try-lock; abort on contention, so no
	// deadlock). Words sharing a stripe (one line, or two aliasing
	// lines) lock it once.
	tm := tx.tm
	tx.locked = tx.locked[:0]
	for i := range tx.ws {
		si := tm.stripeFor(tx.ws[i].key)
		if tx.holds(si) {
			continue
		}
		s := &tm.vers[si]
		v := s.Load()
		if v&1 != 0 || v>>1 > tx.rv || !s.CompareAndSwap(v, v|1) {
			tx.release(false)
			return false
		}
		tx.locked = append(tx.locked, si)
		// release adds to the stripe's serial word after the publish;
		// asked for now, those misses overlap the rest of the commit.
		hostpf.Line(unsafe.Pointer(&tm.serial[si]))
	}

	// Validate the read set.
	for _, r := range tx.rs {
		v := tm.vers[r.stripe].Load()
		if v != r.ver && !(v == r.ver|1 && tx.holds(r.stripe)) {
			tx.release(false)
			return false
		}
	}

	// Publish. The PM portion is a failure-atomic section for the
	// crash injector: hardware RTM retires a commit's stores as one
	// all-or-nothing event, so an injected power cut can land before or
	// after the publish but never tear it (a crashSignal raised at the
	// section boundary unwinds through Run's recover, which re-panics
	// unknown types, to the operation's CatchCrash).
	hasPM := false
	for i := range tx.ws {
		if tx.ws[i].pm {
			hasPM = true
			break
		}
	}
	if hasPM {
		tx.pool.BeginAtomic(c)
		defer tx.pool.EndAtomic(c)
	}
	c.Charge(commitBaseNS + int64(tx.publish())*commitPerLineNS)
	tx.release(true)
	return true
}

// publish makes the write set visible in buffer order and returns how
// many units it retired. Each run of consecutive PM words on one
// cacheline is one unit, stored under one access to the line
// (Pool.StoreLine); each volatile word is one unit of its own. Merging
// only consecutive words keeps the lines dirtied, and their order, those
// of a store per word, so only cache hits and the clock tell the two
// apart.
func (tx *Txn) publish() (units int) {
	ws := tx.ws
	for i := 0; i < len(ws); units++ {
		if !ws[i].pm {
			atomic.StoreUint64(ws[i].ptr, ws[i].val)
			tx.ctx.ChargeDRAM(1)
			i++
			continue
		}
		line, n := ws[i].addr&^uint64(pmem.CachelineSize-1), 0
		for ; i < len(ws) && ws[i].pm && ws[i].addr&^uint64(pmem.CachelineSize-1) == line && n < len(tx.run); i++ {
			tx.run[n] = pmem.Word{Addr: ws[i].addr, Val: ws[i].val}
			n++
		}
		tx.pool.StoreLine(tx.ctx, tx.run[:n])
	}
	return units
}

// holds reports whether commit has locked stripe si.
func (tx *Txn) holds(si uint64) bool {
	for _, l := range tx.locked {
		if l == si {
			return true
		}
	}
	return false
}

// release unlocks the stripes commit holds, stamping them with a new
// version if it published, and accounts their serialisation.
func (tx *Txn) release(published bool) {
	tm := tx.tm
	var wv uint64
	if published {
		wv = tm.clock.Add(1)
	}
	for _, si := range tx.locked {
		s := &tm.vers[si]
		if published {
			s.Store(wv << 1)
		} else {
			s.Store(s.Load() &^ 1)
		}
		t := tm.serial[si].Add(stripeSerialBase)
		if g := tm.Group; g != nil {
			g.Bump(t)
		}
	}
}

// BumpStore64 performs a non-transactional PM store that concurrent
// transactions observe as a conflict (the stripe version advances).
// Used for lock words on the fallback path.
func (tm *TM) BumpStore64(c *pmem.Ctx, pool *pmem.Pool, addr uint64, v uint64) {
	s := &tm.vers[tm.stripeFor(uintptr(addr))]
	tm.lockStripe(s)
	pool.Store64(c, addr, v)
	tm.unlockStripe(s)
}

// PeekVol reads the volatile word at p outside any transaction. ok is
// false while a commit (which may not have stored the word yet) or an
// irrevocable transaction holds the word's stripe.
func (tm *TM) PeekVol(p *uint64) (v uint64, ok bool) {
	s := &tm.vers[tm.stripeFor(ptrKey(p))]
	ver := s.Load()
	if ver&1 != 0 {
		return 0, false
	}
	v = atomic.LoadUint64(p)
	return v, s.Load() == ver
}

// BumpStoreVol performs a non-transactional volatile store with
// stripe-version advancement.
func (tm *TM) BumpStoreVol(c *pmem.Ctx, p *uint64, v uint64) {
	s := &tm.vers[tm.stripeFor(ptrKey(p))]
	tm.lockStripe(s)
	atomic.StoreUint64(p, v)
	c.ChargeDRAM(1)
	tm.unlockStripe(s)
}

// BumpCASVol performs a non-transactional volatile compare-and-swap
// with stripe-version advancement. Returns whether it swapped.
func (tm *TM) BumpCASVol(c *pmem.Ctx, p *uint64, old, new uint64) bool {
	s := &tm.vers[tm.stripeFor(ptrKey(p))]
	tm.lockStripe(s)
	ok := atomic.CompareAndSwapUint64(p, old, new)
	c.ChargeDRAM(1)
	tm.unlockStripe(s)
	return ok
}

func (tm *TM) lockStripe(s *atomic.Uint64) {
	for {
		v := s.Load()
		if v&1 == 0 && s.CompareAndSwap(v, v|1) {
			return
		}
	}
}

func (tm *TM) unlockStripe(s *atomic.Uint64) {
	wv := tm.clock.Add(1)
	s.Store(wv << 1)
}

func ptrKey(p *uint64) uintptr {
	// The word's address is a stable unique key: Go's collector does
	// not move heap objects, and the words we key on (directory
	// entries, lock words) stay reachable for the TM's lifetime.
	return uintptr(unsafe.Pointer(p))
}

// txnPool recycles transaction descriptors (and their read/write set
// backing arrays) across attempts.
var txnPool = sync.Pool{
	New: func() any {
		return &Txn{
			rs:     make([]rsEntry, 0, 64),
			ws:     make([]wsEntry, 0, 16),
			locked: make([]uint64, 0, 16),
		}
	},
}
