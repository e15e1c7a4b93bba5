package main

import (
	"fmt"
	"time"

	"spash/internal/alloc"
	"spash/internal/core"
	"spash/internal/htm"
	"spash/internal/pmem"
	"spash/internal/shard"
)

// probeIters is the fixed count of each probe loop (a twentieth of it at
// -scale tiny).
const probeIters = 1_000_000

// timeLoop returns f's wall ns per iteration over n iterations.
func timeLoop(n uint64, f func(i uint64)) float64 {
	t0 := time.Now()
	for i := uint64(0); i < n; i++ {
		f(i)
	}
	return float64(time.Since(t0)) / float64(n)
}

// probes times fixed-count loops over each inner layer's public API on a
// scratch pool of the default geometry: the real (wall) cost of one
// simulated event, which the traced run multiplies by the event counts
// to estimate how busy each layer was.
func probes(vals map[string]float64, n uint64) error {
	const (
		line     = pmem.CachelineSize
		resident = 1 << 20  // well inside the 8 MB simulated cache
		stream   = 64 << 20 // 8x the cache: cycling through it always misses
		base     = 1 << 20
	)
	pool := pmem.New(pmem.Config{PoolSize: base + stream + (64 << 20)})
	c := pool.NewCtx()
	defer c.Release()

	var sink uint64
	for a := uint64(0); a < resident; a += line {
		pool.Store64(c, base+a, a)
	}
	vals["pmem.load_hit_ns"] = timeLoop(n, func(i uint64) {
		sink += pool.Load64(c, base+(i*line)%resident)
	})
	vals["pmem.store_hit_ns"] = timeLoop(n, func(i uint64) {
		pool.Store64(c, base+(i*line)%resident, i)
	})
	storeFlushFence := timeLoop(n, func(i uint64) {
		a := base + (i*line)%resident
		pool.Store64(c, a, i)
		pool.Flush(c, a, 8)
		pool.Fence(c)
	})
	vals["pmem.flush_fence_ns"] = storeFlushFence - vals["pmem.store_hit_ns"]
	vals["pmem.load_miss_ns"] = timeLoop(n, func(i uint64) {
		sink += pool.Load64(c, base+(i*line)%stream)
	})

	tm := htm.New(htm.Config{})
	txn := func(body func(tx *htm.Txn) error) func(uint64) {
		return func(uint64) {
			if code, err := tm.Run(c, pool, body); code != htm.Committed || err != nil {
				panic(fmt.Sprintf("probe txn: code %v err %v", code, err))
			}
		}
	}
	// Each transaction works on another segment of the resident region,
	// so the version stripes it touches are as cold in the real cache as
	// an index operation's are.
	var seg uint64
	next := func() { seg = base + (seg-base+core.SegmentSize*61)%resident }
	seg = base
	vals["htm.txn_1line_ns"] = timeLoop(n, txn(func(tx *htm.Txn) error {
		next()
		sink += tx.Load(seg)
		return nil
	}))
	// A read-only scan of one 256 B segment: 32 word loads.
	vals["htm.txn_segscan_ns"] = timeLoop(n, txn(func(tx *htm.Txn) error {
		next()
		for w := uint64(0); w < core.SegmentSize; w += 8 {
			sink += tx.Load(seg + w)
		}
		return nil
	}))
	vals["htm.txn_write1_ns"] = timeLoop(n, txn(func(tx *htm.Txn) error {
		next()
		tx.Store(seg, tx.Load(seg)+1)
		return nil
	}))

	apool := pmem.New(pmem.Config{PoolSize: 32 << 20})
	ac := apool.NewCtx()
	defer ac.Release()
	al, err := alloc.New(ac, apool)
	if err != nil {
		return err
	}
	ah := al.NewHandle()
	defer ah.Close()
	var allocErr error
	vals["alloc.alloc_free_ns"] = timeLoop(n, func(uint64) {
		addr, _, err := ah.Alloc(ac, 96)
		if err != nil {
			allocErr = err
			return
		}
		ah.Free(ac, addr, 96)
	})
	if allocErr != nil {
		return allocErr
	}

	ns, err := probeSplitBatch(int(n / 256))
	if err != nil {
		return err
	}
	vals["shard.splitbatch_ns_per_op"] = ns
	probeSink = sink
	return nil
}

var probeSink uint64

// probeSplitBatch prices shard.SplitBatch's routing: batches of 64 GETs
// through SplitBatch over two shards, minus batches of other keys handed
// to each shard's ExecBatch already partitioned. The two take turns going
// first and never share keys, so neither runs on the other's warm lines.
func probeSplitBatch(iters int) (float64, error) {
	const (
		nkeys = 20_000
		batch = 64
	)
	units, err := shard.OpenAll(2, pmem.DefaultConfig(), core.Config{})
	if err != nil {
		return 0, err
	}
	hs := []*core.Handle{units[0].Ix.NewHandle(nil), units[1].Ix.NewHandle(nil)}
	defer hs[0].Close()
	defer hs[1].Close()
	ks := keyspace{records: nkeys}
	keys := make([][]byte, nkeys)
	val := make([]byte, 64)
	for id := range keys {
		keys[id] = ks.key(nil, uint64(id))
		h := hs[shard.Of(core.KeyHash(keys[id]), 2)]
		if err := h.Insert(keys[id], ks.value(val, uint64(id), 0)); err != nil {
			return 0, err
		}
	}
	ops := make([]core.BatchOp, batch)
	resbuf := make([][]byte, batch)
	fill := func(n int) {
		for i := range ops {
			ops[i] = core.BatchOp{Kind: core.OpSearch, Key: keys[(n*batch+i)%nkeys], ResultBuf: resbuf[i][:0]}
		}
	}
	var split, direct time.Duration
	parts := [2][]core.BatchOp{}
	viaSplit := func(n int) {
		fill(n)
		t0 := time.Now()
		shard.SplitBatch(hs, ops)
		split += time.Since(t0)
		for i := range ops {
			resbuf[i] = ops[i].Result
		}
	}
	viaParts := func(n int) {
		fill(n)
		parts[0], parts[1] = parts[0][:0], parts[1][:0]
		for _, o := range ops {
			s := shard.Of(core.KeyHash(o.Key), 2)
			parts[s] = append(parts[s], o)
		}
		t0 := time.Now()
		hs[0].ExecBatch(parts[0])
		hs[1].ExecBatch(parts[1])
		direct += time.Since(t0)
	}
	for it := 0; it < iters; it++ {
		if it%2 == 0 {
			viaSplit(2 * it)
			viaParts(2*it + 1)
		} else {
			viaParts(2 * it)
			viaSplit(2*it + 1)
		}
	}
	return float64(split-direct) / float64(iters*batch), nil
}
