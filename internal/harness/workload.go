package harness

import (
	"runtime"
	"sync"

	"spash/internal/core"
	"spash/internal/ixapi"
	"spash/internal/pmem"
	"spash/internal/ycsb"
)

// Op is one generated request.
type Op struct {
	Kind ycsb.OpKind
	Key  []byte
	Val  []byte
}

// OpSource generates a worker's operation stream; it is called once
// per worker (id) and must return an independent deterministic stream.
type OpSource func(id int) func(i int) Op

// batchSize is the request-queue chunk handed to pipelined execution.
const batchSize = 64

// Run measures a phase of opsPerWorker requests on each of workers
// goroutines. When pipeline is true and the index supports batched
// execution (Spash), requests are issued through the pipelined path
// (§III-D); otherwise one call per request. A non-nil lat samples
// every operation's virtual latency — the delta of the worker's clock
// across it, summed over shard contexts for a partitioned worker — and
// forces the one-call-per-request path, where an operation has a
// latency of its own.
//
// A worker yields after every batch, or every batchSize single calls, so
// the workers take turns at that grain whatever else the host runs. Left
// to the scheduler, a loaded host runs each worker's whole phase in one
// time slice, one worker takes every cold miss, and its clock sets the
// phase's elapsed time (ROADMAP item 8).
func Run(name string, ix ixapi.Index, workers, opsPerWorker int, pipeline bool, src OpSource, lat *LatencyHist) Result {
	m := startMeasure(ix)
	clocks := make([]int64, workers)

	var wg sync.WaitGroup
	for id := 0; id < workers; id++ {
		wg.Add(1)
		go func(id int) {
			defer wg.Done()
			w := ix.NewWorker()
			defer w.Close()
			w.ResetClock()
			next := src(id)
			if bw, ok := w.(ixapi.Batcher); ok && pipeline && lat == nil {
				runBatched(bw, next, opsPerWorker)
			} else {
				runSequential(w, next, opsPerWorker, lat)
			}
			clocks[id] = w.Clock()
		}(id)
	}
	wg.Wait()
	res := m.finish(name, clocks, int64(workers)*int64(opsPerWorker))
	if lat != nil {
		recorder().SetLatency(lat.Summary())
	}
	return res
}

func runSequential(w ixapi.Worker, next func(i int) Op, n int, lat *LatencyHist) {
	var samples []int64
	if lat != nil {
		samples = make([]int64, 0, n)
	}
	prev := int64(0)
	for i := 0; i < n; i++ {
		op := next(i)
		switch op.Kind {
		case ycsb.OpSearch:
			w.Search(op.Key, nil)
		case ycsb.OpUpdate:
			w.Update(op.Key, op.Val)
		case ycsb.OpInsert:
			w.Insert(op.Key, op.Val)
		case ycsb.OpDelete:
			w.Delete(op.Key)
		}
		if i%batchSize == batchSize-1 {
			runtime.Gosched()
		}
		if lat != nil {
			now := w.Clock()
			samples = append(samples, now-prev)
			prev = now
		}
	}
	if lat != nil {
		lat.Add(samples)
	}
}

func runBatched(bw ixapi.Batcher, next func(i int) Op, n int) {
	batch := make([]core.BatchOp, 0, batchSize)
	// Keys/values must stay stable for the whole batch: the generator
	// may reuse buffers, so copy into per-slot scratch.
	type scratch struct{ k, v []byte }
	bufs := make([]scratch, batchSize)
	flush := func() {
		if len(batch) > 0 {
			bw.ExecBatch(batch)
			batch = batch[:0]
			runtime.Gosched()
		}
	}
	for i := 0; i < n; i++ {
		op := next(i)
		s := &bufs[len(batch)]
		s.k = append(s.k[:0], op.Key...)
		s.v = append(s.v[:0], op.Val...)
		var kind core.OpKind
		switch op.Kind {
		case ycsb.OpSearch:
			kind = core.OpSearch
		case ycsb.OpUpdate:
			kind = core.OpUpdate
		case ycsb.OpInsert:
			kind = core.OpInsert
		case ycsb.OpDelete:
			kind = core.OpDelete
		}
		batch = append(batch, core.BatchOp{Kind: kind, Key: s.k, Value: s.v})
		if len(batch) == batchSize {
			flush()
		}
	}
	flush()
}

func combine(name string, clocks []int64, memDeltas []pmem.Stats, serial int64, ops int64) Result {
	var maxClock int64
	for _, c := range clocks {
		if c > maxClock {
			maxClock = c
		}
	}
	// Each device has independent bandwidth: the media-time bound is
	// the hottest device's, while the reported delta sums all of them.
	var mem pmem.Stats
	var readNS, writeNS int64
	t := pmem.DefaultTiming()
	for _, d := range memDeltas {
		r := int64(float64(d.MediaReadBytes()) / t.PMReadBandwidth * 1e9)
		w := int64(float64(d.MediaWriteBytes()) / t.PMWriteBandwidth * 1e9)
		if r > readNS {
			readNS = r
		}
		if w > writeNS {
			writeNS = w
		}
		mem = mem.Add(d)
	}
	elapsed, bound := maxClock, "cpu"
	if serial > elapsed {
		elapsed, bound = serial, "lock"
	}
	if readNS > elapsed {
		elapsed, bound = readNS, "read-bw"
	}
	if writeNS > elapsed {
		elapsed, bound = writeNS, "write-bw"
	}
	if elapsed == 0 {
		elapsed = 1
	}
	return Result{Name: name, Ops: ops, Elapsed: elapsed, Mem: mem, Bound: bound}
}
