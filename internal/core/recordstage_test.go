package core

import (
	"bytes"
	"fmt"
	"math/rand"
	"testing"

	"spash/internal/alloc"
	"spash/internal/pmem"
)

// stageIndex is an index with 16-byte keys on a pool whose cache never
// evicts: a line misses once, when it is first read, so a run's misses
// are the set of lines it read, whatever their order.
func stageIndex(t testing.TB) (*Index, *Handle, *pmem.Pool) {
	t.Helper()
	pool := pmem.New(pmem.Config{PoolSize: 8 << 20, CacheSize: 64 << 20, XPBufferLines: 1 << 16})
	c := pool.NewCtx()
	al, err := alloc.New(c, pool)
	if err != nil {
		t.Fatal(err)
	}
	ix, err := Open(c, pool, al, Config{InitialDepth: 4})
	if err != nil {
		t.Fatal(err)
	}
	return ix, ix.NewHandle(c), pool
}

func stageKey(id int) []byte { return []byte(fmt.Sprintf("key-%012d", id)) }

// stageValue is id's value at generation gen: inline, or a record of
// one, two, three or five lines.
func stageValue(id, gen int) []byte {
	switch id % 5 {
	case 0:
		return k64(uint64(gen))
	case 1:
		return []byte(fmt.Sprintf("%024d", gen))
	case 2:
		return []byte(fmt.Sprintf("%072d", gen))
	case 3:
		return []byte(fmt.Sprintf("%150d", gen))
	}
	return []byte(fmt.Sprintf("%300d", gen))
}

// The record stage asks the device only for lines the operations then
// read: a mixed batch of 16-byte keys misses on, fills and writes back
// exactly what the same operations run one at a time do — a prefetched
// line no operation reads would be one more miss and fill — and finishes
// sooner. Media reads are XPLine accesses, and the XPBuffer coalesces
// two lines of one XPLine only inside its combining window (drainTicks),
// so reordering the reads moves that count by a few where two requests'
// lines share an XPLine (a segment's buckets, neighbouring records); it
// is held to 0.5 %.
func TestRecordStageMissesOnlyWhatTheOpReads(t *testing.T) {
	const records = 3000
	// cold loads the records and cuts the power, so the operations find
	// the cache empty: under eADR nothing is lost, and recovery reads
	// segments, not records.
	cold := func() (*Index, *Handle, *pmem.Pool) {
		_, h, pool := stageIndex(t)
		for id := 0; id < records; id++ {
			if err := h.Insert(stageKey(id), stageValue(id, 0)); err != nil {
				t.Fatal(err)
			}
		}
		pool.Crash()
		ix, _, err := Recover(pool.NewCtx(), pool, Config{InitialDepth: 4})
		if err != nil {
			t.Fatal(err)
		}
		return ix, ix.NewHandle(nil), pool
	}
	ixB, hB, poolB := cold()
	ixS, hS, poolS := cold()
	before := func(p *pmem.Pool, h *Handle) (pmem.Stats, int64) { return p.Stats(), h.c.Clock() }
	statsB, clockB := before(poolB, hB)
	statsS, clockS := before(poolS, hS)

	rng := rand.New(rand.NewSource(39))
	ops := make([]BatchOp, 64)
	for b := 0; b < 60; b++ {
		for i := range ops {
			id := rng.Intn(records + records/10) // a tenth absent
			switch k := rng.Intn(10); {
			case k < 6:
				ops[i] = BatchOp{Kind: OpSearch, Key: stageKey(id)}
			case k < 8:
				ops[i] = BatchOp{Kind: OpUpdate, Key: stageKey(id), Value: stageValue(id, b+1)}
			case k < 9:
				ops[i] = BatchOp{Kind: OpInsert, Key: stageKey(id), Value: stageValue(id, b+1)}
			default:
				ops[i] = BatchOp{Kind: OpDelete, Key: stageKey(id)}
			}
		}
		want := make([]BatchOp, len(ops))
		copy(want, ops)
		for i := range want {
			execSingle(t, hS, &want[i])
		}
		hB.ExecBatch(ops)
		for i := range ops {
			if !sameOutcome(ops[i], want[i]) {
				t.Fatalf("batch %d op %d (%v %s): batched %q %v %v, single %q %v %v", b, i, ops[i].Kind, ops[i].Key,
					ops[i].Result, ops[i].Found, ops[i].Err, want[i].Result, want[i].Found, want[i].Err)
			}
		}
	}
	gotB, gotS := poolB.Stats(), poolS.Stats()
	if gotB.Evictions != 0 || gotS.Evictions != 0 {
		t.Fatalf("the cache evicted (%d batched, %d single): the comparison needs one that does not", gotB.Evictions, gotS.Evictions)
	}
	for _, m := range []struct {
		name   string
		b, s   uint64
		b0, s0 uint64
	}{
		{"CacheMisses", gotB.CacheMisses, gotS.CacheMisses, statsB.CacheMisses, statsS.CacheMisses},
		{"CachelineReads", gotB.CachelineReads, gotS.CachelineReads, statsB.CachelineReads, statsS.CachelineReads},
		{"XPLineWrites", gotB.XPLineWrites, gotS.XPLineWrites, statsB.XPLineWrites, statsS.XPLineWrites},
	} {
		if m.b-m.b0 != m.s-m.s0 {
			t.Errorf("%s: batched %d, single %d", m.name, m.b-m.b0, m.s-m.s0)
		}
	}
	rb, rs := int64(gotB.XPLineReads-statsB.XPLineReads), int64(gotS.XPLineReads-statsS.XPLineReads)
	if d := rb - rs; 200*max(d, -d) > rs {
		t.Errorf("XPLineReads: batched %d, single %d, more than 0.5 %% apart", rb, rs)
	}
	t.Logf("misses %d, XPLine reads %d batched and %d single, clock %d ns batched and %d single",
		gotB.CacheMisses-statsB.CacheMisses, rb, rs, hB.c.Clock()-clockB, hS.c.Clock()-clockS)
	if db, ds := hB.c.Clock()-clockB, hS.c.Clock()-clockS; db >= ds {
		t.Errorf("batched clock %d ns, single %d ns: the stage overlapped nothing", db, ds)
	}
	if ixB.Len() != ixS.Len() {
		t.Errorf("batched index holds %d entries, single %d", ixB.Len(), ixS.Len())
	}
}

// A batch never drops a prefetch still in flight, however many record
// lines its values span: the line would already be in the cache, so the
// operation's load would hit and the miss would cost only its issue. The
// context keeps at most 16 loads in flight, and a request's lines are
// prefetched once, so a request saves at most 16 misses' latency over the
// same Get run singly. Gets of 1 KB, 4 KB and 64 KB values span 17, 65
// and 1025 lines: with in-flight loads dropped, the 64 KB batches at every
// depth and the 4 KB batch at depth 2 save several times that.
func TestRecordStageKeepsLoadsInFlight(t *testing.T) {
	const keys, inFlight = 24, 16
	miss := pmem.DefaultTiming().CacheMissLoad
	for _, size := range []int{1 << 10, 4 << 10, MaxKVLen} {
		value := func(id int) []byte { return bytes.Repeat([]byte{byte(id)}, size) }
		for _, pd := range []int{2, 4, 8} {
			cold := func() *Handle {
				_, h, pool := stageIndex(t)
				for id := 0; id < keys; id++ {
					if err := h.Insert(stageKey(id), value(id)); err != nil {
						t.Fatal(err)
					}
				}
				pool.Crash()
				ix, _, err := Recover(pool.NewCtx(), pool, Config{InitialDepth: 4, PipelineDepth: pd})
				if err != nil {
					t.Fatal(err)
				}
				return ix.NewHandle(nil)
			}
			hB, hS := cold(), cold()
			ops := make([]BatchOp, keys)
			for i, id := range rand.New(rand.NewSource(int64(size + pd))).Perm(keys) {
				ops[i] = BatchOp{Kind: OpSearch, Key: stageKey(id)}
			}
			clockB, clockS := hB.c.Clock(), hS.c.Clock()
			hB.ExecBatch(ops)
			for i := range ops {
				want := BatchOp{Kind: OpSearch, Key: ops[i].Key}
				execSingle(t, hS, &want)
				if !sameOutcome(ops[i], want) || !want.Found {
					t.Fatalf("%d B, PD %d: Get %s: batched %v %v, single %v %v", size, pd, ops[i].Key,
						ops[i].Found, ops[i].Err, want.Found, want.Err)
				}
			}
			clockB, clockS = hB.c.Clock()-clockB, hS.c.Clock()-clockS
			if saved, most := clockS-clockB, keys*inFlight*miss; saved > most {
				t.Errorf("%d B values, PD %d: the batch took %d ns, %d less than single Gets; %d loads in flight per request save at most %d",
					size, pd, clockB, saved, inFlight, most)
			}
		}
	}
}

// A single operation's probe prefetches a fingerprint match's value
// record before it compares the key record, so on a cold cache the value
// record's misses overlap the key record's instead of following it. A Get
// of a 64 B value still misses on exactly the lines it reads — the
// bucket, the key record and the value's two lines — but waits for only
// two misses one after the other: its clock stays below 2 misses and
// 300 ns, where the sequential probe paid four. Update and Delete read
// only the value's header, whose miss overlaps the key record's too, and
// stay below the three the sequential probe paid.
func TestProbePrefetchOverlapsRecordMisses(t *testing.T) {
	const keys = 64
	miss := pmem.DefaultTiming().CacheMissLoad
	value := func(id int) []byte { return []byte(fmt.Sprintf("%064d", id)) }
	// cold loads the records and empties the cache with an eADR power
	// cut, which loses no line and leaves the index's volatile state as
	// it was, so the index runs on without a recovery warming its buckets.
	cold := func() (*Index, *Handle) {
		ix, h, pool := stageIndex(t)
		for id := 0; id < keys; id++ {
			if err := h.Insert(stageKey(id), value(id)); err != nil {
				t.Fatal(err)
			}
		}
		pool.Crash()
		return ix, h
	}
	lines := func(set map[uint64]bool, addr uint64, n int) {
		for l := addr &^ (pmem.CachelineSize - 1); l < addr+uint64(n); l += pmem.CachelineSize {
			set[l] = true
		}
	}
	// Pick a key whose records lie as the sequential probe paid for
	// them: the key record on one line, the value's two lines on neither
	// it nor the bucket, and no merge attempt after its delete. The index
	// is rebuilt the same way for each operation, so its addresses hold.
	ix, h := cold()
	var key []byte
	var bucket, keyRec, valRec uint64
	for id := 0; id < keys && key == nil; id++ {
		r := makeReq(stageKey(id))
		_, e := ix.resolveRaw(r.h)
		idx, kw, vw, _, _ := ix.locate(h.raw, h.c, entrySeg(e), &r, false)
		if idx < 0 || r.h>>32&0xF == 0 {
			continue
		}
		bucket = slotAddr(entrySeg(e), idx) &^ (pmem.CachelineSize - 1)
		keyRec, valRec = wordPayload(kw), wordPayload(vw)
		k, v := map[uint64]bool{bucket: true}, map[uint64]bool{}
		lines(k, keyRec, recordSpace(len(r.key)))
		lines(v, valRec, recordSpace(64))
		lines(k, valRec, recordSpace(64))
		if len(k) == 4 && len(v) == 2 {
			key = r.key
		}
	}
	if key == nil {
		t.Fatal("no key's records lie on lines of their own")
	}
	for _, op := range []BatchOp{
		{Kind: OpSearch, Key: key},
		{Kind: OpUpdate, Key: key, Value: value(keys)},
		{Kind: OpDelete, Key: key},
	} {
		read := map[uint64]bool{bucket: true}
		lines(read, keyRec, recordSpace(len(key)))
		if op.Kind == OpDelete {
			lines(read, valRec, recordHeader)
		} else {
			lines(read, valRec, recordSpace(64)) // an Update stores all of it
		}
		_, h := cold()
		misses, clock := h.c.Stats().CacheMisses, h.c.Clock()
		execSingle(t, h, &op)
		if !op.Found || op.Err != nil {
			t.Fatalf("%v %s: found %v, %v", op.Kind, key, op.Found, op.Err)
		}
		misses, clock = h.c.Stats().CacheMisses-misses, h.c.Clock()-clock
		kind := [...]string{"Get", "Update", "Insert", "Delete"}[op.Kind]
		if misses != uint64(len(read)) {
			t.Errorf("%s: %d misses, want the %d lines it reads", kind, misses, len(read))
		}
		if bound := 2*miss + 300; clock >= bound {
			t.Errorf("%s: clock %d ns over %d misses, want below %d: the value record's misses did not overlap the key record's",
				kind, clock, misses, bound)
		}
		t.Logf("%s: %d misses, %d ns", kind, misses, clock)
	}
}

// The record stage covers an entry behind a hint too. When no slot of
// the main bucket carries the key's fingerprint, the stage starts the load
// of the overflow bucket a hint names, and the probe, which the stage
// covered for the main bucket only, prefetches the value record before it
// compares the key record. A cold batch of Gets of 16-byte keys that all
// sit in overflow buckets then waits less than two misses a request.
// Without the stage's overflow load a request waits out the overflow
// bucket and then the key record; without the probe's prefetch, the key
// record and then the value record; with neither, all three.
func TestRecordStageCoversOverflowEntries(t *testing.T) {
	const keys, batch = 2000, 64
	miss := pmem.DefaultTiming().CacheMissLoad
	value := func(id int) []byte { return []byte(fmt.Sprintf("%064d", id)) }
	ix, h, pool := stageIndex(t)
	for id := 0; id < keys; id++ {
		if err := h.Insert(stageKey(id), value(id)); err != nil {
			t.Fatal(err)
		}
	}
	var ops []BatchOp
	var ids []int
	for id := 0; id < keys && len(ops) < batch; id++ {
		r := makeReq(stageKey(id))
		_, e := ix.resolveRaw(r.h)
		if idx, _, _, _, _ := ix.locate(h.raw, h.c, entrySeg(e), &r, false); idx >= 0 && bucketOf(idx) != mainBucket(r.h) {
			ops = append(ops, BatchOp{Kind: OpSearch, Key: r.key})
			ids = append(ids, id)
		}
	}
	if len(ops) < batch {
		t.Fatalf("only %d of %d keys sit in an overflow bucket", len(ops), keys)
	}
	pool.Crash() // eADR: nothing is lost, and the cache comes back empty
	clock := h.c.Clock()
	h.ExecBatch(ops)
	per := (h.c.Clock() - clock) / batch
	for i := range ops {
		if !ops[i].Found || ops[i].Err != nil || !bytes.Equal(ops[i].Result, value(ids[i])) {
			t.Fatalf("Get %s: %q %v %v", ops[i].Key, ops[i].Result, ops[i].Found, ops[i].Err)
		}
	}
	t.Logf("%d ns a request, a miss is %d ns", per, miss)
	if per >= 2*miss {
		t.Errorf("a batched Get of an overflow entry took %d ns, want below two misses (%d ns): the overflow bucket's, key record's and value record's misses did not overlap",
			per, 2*miss)
	}
}

// At PipelineDepth 4 the record stage runs for a request as soon as its
// bucket has arrived, and for the next request in any case. The batch is
// an Insert, whose first persistence step cuts the power, and three Gets
// of 16-byte keys with 64 B values: A's bucket is cold, B's and C's and
// the Insert's are in the cache. So when the Insert executes, the stage
// must already have run for all three Gets, which the cut leaves in the
// context's prefetch table: for A, one request ahead, after waiting for
// its bucket; for B and C, two and three requests ahead, with no wait of
// their own, so their record loads were issued within a quarter of a
// miss of A's.
func TestRecordStageRunsOnArrival(t *testing.T) {
	const records = 200
	miss := pmem.DefaultTiming().CacheMissLoad
	value := func(id int) []byte { return []byte(fmt.Sprintf("%064d", id)) }
	pool := pmem.New(pmem.Config{PoolSize: 8 << 20, CacheSize: 64 << 20, XPBufferLines: 1 << 16})
	c := pool.NewCtx()
	al, err := alloc.New(c, pool)
	if err != nil {
		t.Fatal(err)
	}
	ix, err := Open(c, pool, al, Config{InitialDepth: 4, PipelineDepth: 4})
	if err != nil {
		t.Fatal(err)
	}
	h := ix.NewHandle(c)
	for id := 0; id < records; id++ {
		if err := h.Insert(stageKey(id), value(id)); err != nil {
			t.Fatal(err)
		}
	}
	// Pick the Gets: entries in their main buckets, no two buckets or
	// record lines shared. recs holds each Get's record lines.
	type get struct {
		key    []byte
		bucket uint64
		recs   []uint64
	}
	used := map[uint64]bool{}
	lines := func(addr uint64, n int) (ls []uint64) {
		for l := addr &^ (pmem.CachelineSize - 1); l < addr+uint64(n); l += pmem.CachelineSize {
			ls = append(ls, l)
		}
		return ls
	}
	var gets []get
	for id := 0; id < records && len(gets) < 3; id++ {
		r := makeReq(stageKey(id))
		_, e := ix.resolveRaw(r.h)
		idx, kw, vw, _, _ := ix.locate(h.raw, h.c, entrySeg(e), &r, false)
		g := get{key: r.key, bucket: mainBucketAddr(e, r.h)}
		g.recs = append(lines(wordPayload(kw), recordSpace(len(r.key))), lines(wordPayload(vw), recordSpace(64))...)
		fresh := idx >= 0 && bucketOf(idx) == mainBucket(r.h) && !used[g.bucket]
		for _, l := range g.recs {
			fresh = fresh && !used[l]
		}
		if fresh {
			used[g.bucket] = true
			for _, l := range g.recs {
				used[l] = true
			}
			gets = append(gets, g)
		}
	}
	if len(gets) < 3 {
		t.Fatal("fewer than three keys have buckets and records of their own")
	}
	ins := makeReq(stageKey(records))
	_, e := ix.resolveRaw(ins.h)
	if used[mainBucketAddr(e, ins.h)] {
		t.Fatal("the Insert shares a bucket with a Get")
	}

	pool.Crash() // eADR: nothing is lost, and the cache comes back empty
	for _, b := range []uint64{mainBucketAddr(e, ins.h), gets[1].bucket, gets[2].bucket} {
		pool.Load64(h.c, b)
	}
	ops := []BatchOp{{Kind: OpInsert, Key: ins.key, Value: value(records)}}
	for _, g := range gets {
		ops = append(ops, BatchOp{Kind: OpSearch, Key: g.key})
	}
	pool.ArmFault(&pmem.FaultPlan{CrashAtStep: 1})
	if err := pmem.CatchCrash(func() error { h.ExecBatch(ops); return nil }); err != pmem.ErrInjectedCrash {
		t.Fatalf("the Insert did not cut the power: %v", err)
	}
	arrives := func(g get) (first, last int64) {
		for i, l := range g.recs {
			a := h.c.Arrives(l)
			if a == 0 {
				t.Fatalf("Get %s: no load of record line %#x in flight when the Insert ran", g.key, l)
			}
			if i == 0 || a < first {
				first = a
			}
			last = max(last, a)
		}
		return first, last
	}
	a0, a1 := arrives(gets[0])
	if bucket := h.c.Arrives(gets[0].bucket); a0 < bucket+miss {
		t.Errorf("Get A's records arrive at %d ns, less than a miss after its bucket (%d ns): the stage did not wait for the bucket", a0, bucket)
	}
	for i, name := range []string{"B", "C"} {
		if b0, _ := arrives(gets[i+1]); b0-a1 > miss/4 {
			t.Errorf("Get %s's records arrive %d ns after A's, want under %d: its stage waited", name, b0-a1, miss/4)
		}
	}
}

// execSingle runs op through the Handle method of its kind, filling in its
// outcome as ExecBatch would.
func execSingle(t testing.TB, h *Handle, op *BatchOp) {
	t.Helper()
	switch op.Kind {
	case OpSearch:
		op.Result, op.Found, op.Err = h.Search(op.Key, op.ResultBuf)
	case OpUpdate:
		op.Found, op.Err = h.Update(op.Key, op.Value)
	case OpInsert:
		op.Err = h.Insert(op.Key, op.Value)
		op.Found = op.Err == nil
	case OpDelete:
		op.Found, op.Err = h.Delete(op.Key)
	}
}

// sameOutcome reports whether two executions of one request agree.
func sameOutcome(a, b BatchOp) bool {
	return a.Found == b.Found && bytes.Equal(a.Result, b.Result) && fmt.Sprint(a.Err) == fmt.Sprint(b.Err)
}

// The record stage reads a bucket outside any operation's guard, and the
// bucket may hold anything: a stale segment's words, a freed block's. Its
// slot words may name records outside the pool, misaligned, on a poisoned
// line or anywhere at all; its hint words may name any slot, with the
// probe's overflow fingerprint or another, beside key words that match or
// not; the bucket may sit on a poisoned line or on the pool's last one.
// The stage neither panics (Pool.Prefetch does on a line outside the pool,
// such as an overflow bucket past its end) nor machine-checks nor takes a
// fault step, and the batches around it still answer as single
// operations do.
func FuzzRecordStagePeek(f *testing.F) {
	// With hw 0 every key word claims the probe's fingerprint and no value
	// word carries a hint: the stage prefetches each slot's records.
	f.Add(uint64(0), uint64(0), uint64(0), uint64(0), uint8(0), uint64(0))
	f.Add(^uint64(0), ^uint64(0), kOccupied|1<<40, uint64(1)<<47, uint8(0x1b), uint64(0))
	f.Add(uint64(3), uint64(5<<20), uint64(7<<20+3), uint64(8<<20), uint8(0xe4), uint64(0))
	f.Add(uint64(1<<20), uint64(6<<20), uint64(2), uint64(1<<63|3<<20), uint8(0x55), uint64(0))
	// Hints behind key words that all differ, naming every bucket; the
	// same at the end of the pool; hints with other overflow fingerprints,
	// behind differing and beside matching key words; hinted overflow
	// buckets on a poisoned line.
	f.Add(^uint64(0), ^uint64(0), kOccupied|1<<40, uint64(1)<<47, uint8(0x1b), uint64(0x017_057_0b7_0f7))
	f.Add(uint64(3), uint64(5<<20), uint64(7<<20+3), uint64(8<<20), uint8(0xe4), uint64(1<<48|0x0c7_0d7_0e7_0f7))
	f.Add(uint64(1<<20), uint64(6<<20), uint64(2), uint64(3<<20), uint8(0x55), uint64(0x5f3_4e3_3d3_2c3))
	f.Add(uint64(1<<20), uint64(6<<20), uint64(2), uint64(3<<20), uint8(0x55), uint64(0x5f2_4e3_3d2_2c3))
	f.Add(uint64(9), uint64(4<<20), uint64(1), uint64(0), uint8(0x99), uint64(2<<48|0x017_007_017_007))
	f.Fuzz(func(t *testing.T, w0, w1, w2, w3 uint64, pick uint8, hw uint64) {
		ix, h, pool := hintIndex(t)
		for id := 0; id < 200; id++ {
			if err := h.Insert(stageKey(id), stageValue(id, id)); err != nil {
				t.Fatal(err)
			}
		}
		const poisoned = 5 << 20  // a line the stage may be sent to
		bucket := uint64(4 << 20) // unallocated space, or the pool's last line
		if hw&(1<<48) != 0 {
			bucket = pool.Size() - pmem.CachelineSize
		}
		real := stageKey(7)
		r := makeReq(real)
		// Each slot's record pointers are one of: a fuzzed word, a record
		// of the index, one past the pool, misaligned, on the poisoned
		// line. Twelve bits of hw per slot say whether its key word claims
		// the probe's fingerprint and what hint its value word carries:
		// valid or not, with the probe's overflow fingerprint or not, and
		// naming any slot of the segment.
		live := ix.SegmentAddrs(h.c)[0]
		ptr := func(w uint64, sel uint8) uint64 {
			switch sel & 3 {
			case 0:
				return w
			case 1:
				return live + w%SegmentSize
			case 2:
				return pool.Size() - 8 + w%64
			}
			return poisoned + w%pmem.XPLineSize
		}
		words := [4]uint64{w0, w1, w2, w3}
		for s := 0; s < SlotsPerBucket; s++ {
			kp := ptr(words[s], pick>>(2*s))
			vp := ptr(words[(s+1)%4]^words[s], pick>>(2*s+1))
			g := hw >> (12 * s)
			fp, ofp := r.fp, r.ofp
			if g&1 != 0 {
				fp ^= 1
			}
			if g&4 == 0 {
				ofp = uint16(g >> 8 & 0xF)
			}
			var hint uint64
			if g&2 != 0 {
				hint = makeHint(ofp, int(g>>4&0xF))
			}
			kw := makeKeyWord(words[s]&1 != 0 && s == 0, fp, kp)
			pool.Store64(h.c, bucket+uint64(s)*slotSize, kw)
			pool.Store64(h.c, bucket+uint64(s)*slotSize+8, makeValueWord(words[s]&2 != 0, vp)|hint)
		}
		pool.PoisonLine(poisoned)
		if w3>>63 != 0 {
			pool.PoisonLine(bucket) // the stage must skip the bucket, not machine-check
		}
		if hw&(1<<49) != 0 {
			// Below the unallocated bucket, this XPLine holds the key's
			// overflow buckets 0 and 1.
			pool.PoisonLine(bucket - pmem.XPLineSize)
		}
		fp := &pmem.FaultPlan{CrashAtStep: 1}
		pool.ArmFault(fp)
		for _, get := range []bool{true, false} {
			h.c.BeginOp()
			pool.Prefetch(h.c, bucket)
			r.bucket = bucket
			h.prefetchRecords(&r, get)
			h.c.EndOp()
		}
		if fp.Steps() != 0 || fp.Fired() {
			t.Fatalf("the stage advanced the fault plan: %d steps, fired %v", fp.Steps(), fp.Fired())
		}
		pool.DisarmFault()
		if n := pool.Stats().PoisonReads; n != 0 {
			t.Fatalf("the stage machine-checked %d times", n)
		}
		// Batches and single operations agree around the garbage.
		rng := rand.New(rand.NewSource(int64(w0 ^ w3)))
		ops := make([]BatchOp, 32)
		for i := range ops {
			ops[i] = BatchOp{Kind: OpSearch, Key: stageKey(rng.Intn(260))}
		}
		h.ExecBatch(ops)
		for i := range ops {
			want := BatchOp{Kind: OpSearch, Key: ops[i].Key}
			execSingle(t, h, &want)
			if !sameOutcome(ops[i], want) {
				t.Fatalf("Get %s: batched %q %v %v, single %q %v %v", ops[i].Key,
					ops[i].Result, ops[i].Found, ops[i].Err, want.Result, want.Found, want.Err)
			}
		}
		if n := pool.Stats().PoisonReads; n != 0 {
			t.Fatalf("the batch machine-checked %d times", n)
		}
	})
}

// A single operation's probe prefetches the value record of every
// fingerprint match before its compare, from a value word and a header
// that may be garbage: the slot may belong to a segment freed and reused
// under a doomed transaction. A slot planted in the probe key's main bucket, or behind a
// hint in another bucket, claims the key's fingerprint, names another
// key's record (so the compare fails) and a value record outside the
// pool, misaligned, on a poisoned line, anywhere at all or with a length
// past MaxKVLen. Gets, Updates, Inserts and Deletes of the key neither
// panic nor machine-check nor take a fault step the same operations on a
// twin index without the slot do not, and answer as they do there.
func FuzzProbePrefetchPeek(f *testing.F) {
	// One seed per kind of value pointer (pick&7), in the main bucket
	// and behind a hint (pick&8).
	f.Add(uint64(0), uint64(0), uint8(0x00))
	f.Add(^uint64(0), ^uint64(0), uint8(0x08))
	f.Add(uint64(3), uint64(MaxKVLen+1), uint8(0x02))
	f.Add(uint64(5<<20), uint64(0), uint8(0x0b))
	f.Add(uint64(1), uint64(1<<40|100), uint8(0x04))
	f.Add(uint64(0), uint64(7), uint8(0x0d))
	f.Add(uint64(1<<20), uint64(0), uint8(0x06))
	f.Add(uint64(0), uint64(200), uint8(0x0f))
	f.Add(^uint64(0), uint64(0), uint8(0x11))
	f.Fuzz(func(t *testing.T, w0, w1 uint64, pick uint8) {
		const keys = 40
		const garbage = 4 << 20  // unallocated space
		const poisoned = 5 << 20 // a line the probe may be sent to
		build := func() (*Index, *Handle, *pmem.Pool) {
			ix, h, pool := stageIndex(t)
			for id := 0; id < keys; id++ {
				if err := h.Insert(stageKey(id), stageValue(id, id)); err != nil {
					t.Fatal(err)
				}
			}
			return ix, h, pool
		}
		ixA, hA, poolA := build()
		_, hB, poolB := build()
		decoy := makeReq(stageKey(3))
		_, e := ixA.resolveRaw(decoy.h)
		di, dkw, dvw, _, _ := ixA.locate(hA.raw, hA.c, entrySeg(e), &decoy, false)
		if di < 0 {
			t.Fatal("the decoy key is missing")
		}
		var vp uint64
		switch pick & 7 {
		case 0:
			vp = w0
		case 1:
			vp = poolA.Size() - 8 + w0%64
		case 2:
			vp = garbage + 1 + w0%7
		case 3:
			vp = poisoned + w0%pmem.XPLineSize
		case 4:
			vp = garbage
			poolA.Store64(hA.c, vp, w1)
		case 5:
			vp = garbage
			poolA.Store64(hA.c, vp, MaxKVLen+1+w1%(1<<32-MaxKVLen-1))
		case 6:
			vp = wordPayload(dvw)
		default:
			vp = poolA.Size() - 64
			poolA.Store64(hA.c, vp, w1)
		}
		poolA.PoisonLine(poisoned)
		// Plant the slot for the first absent key whose segment has room.
		overflow := pick&8 != 0
		var key []byte
		for id := 1000; key == nil; id++ {
			r := makeReq(stageKey(id))
			_, e := ixA.resolveRaw(r.h)
			seg := entrySeg(e)
			// The main bucket's first and second free slots, and the
			// first free slot of another bucket.
			free, spare, other := -1, -1, -1
			for s := 0; s < SlotsPerSegment; s++ {
				occupied := keyOccupied(poolA.Peek(slotAddr(seg, s)))
				switch {
				case bucketOf(s) != mainBucket(r.h):
					if !occupied && other < 0 {
						other = s
					}
				case !occupied && free < 0:
					free = s
				case !occupied && spare < 0:
					spare = s
				}
			}
			// In the main bucket the slot takes the first free one and
			// leaves the second to the key's insert; behind a hint it
			// takes another bucket's, and the hint the first free one's
			// value word.
			plant := free
			if overflow {
				plant = other
			}
			if free < 0 || plant < 0 || !overflow && spare < 0 ||
				overflow && hintValid(poolA.Peek(slotAddr(seg, free)+8)) {
				continue
			}
			a := slotAddr(seg, plant)
			poolA.Store64(hA.c, a+8, poolA.Peek(a+8)&hintMask|makeValueWord(pick&0x10 != 0, vp))
			poolA.Store64(hA.c, a, makeKeyWord(false, r.fp, wordPayload(dkw)))
			if overflow {
				ha := slotAddr(seg, free) + 8
				poolA.Store64(hA.c, ha, poolA.Peek(ha)&^hintMask|makeHint(r.ofp, other))
			}
			key = r.key
		}
		val := stageValue(int(w0%5), 1)
		ops := []BatchOp{
			{Kind: OpSearch, Key: key},
			{Kind: OpUpdate, Key: key, Value: val},
			{Kind: OpDelete, Key: key},
			{Kind: OpInsert, Key: key, Value: val},
			{Kind: OpSearch, Key: key},
			{Kind: OpUpdate, Key: key, Value: stageValue(int(w1%5), 2)},
			{Kind: OpSearch, Key: key},
			{Kind: OpDelete, Key: key},
			{Kind: OpSearch, Key: key},
		}
		fpA, fpB := &pmem.FaultPlan{}, &pmem.FaultPlan{}
		poolA.ArmFault(fpA)
		poolB.ArmFault(fpB)
		for i := range ops {
			got, want := ops[i], ops[i]
			execSingle(t, hA, &got)
			execSingle(t, hB, &want)
			if !sameOutcome(got, want) {
				t.Fatalf("op %d (%v): %q %v %v beside the planted slot, %q %v %v on the twin", i, got.Kind,
					got.Result, got.Found, got.Err, want.Result, want.Found, want.Err)
			}
		}
		poolA.DisarmFault()
		poolB.DisarmFault()
		if fpA.Steps() != fpB.Steps() || fpA.Fired() {
			t.Fatalf("the probe moved the fault plan: %d steps beside the planted slot, %d on the twin", fpA.Steps(), fpB.Steps())
		}
		if n := poolA.Stats().PoisonReads; n != 0 {
			t.Fatalf("the probe machine-checked %d times", n)
		}
	})
}
