package harness

import (
	"math/rand"
	"sync"

	"spash/internal/hash"
	"spash/internal/pmem"
	"spash/internal/ycsb"
)

// flushMode is a Fig 1 write strategy.
type flushMode int

const (
	writeF      flushMode = iota // store + flush + fence per chunk
	writeNF                      // store only
	writeHybrid                  // nf for the top-1% hot chunks, f for the rest
)

func (m flushMode) String() string {
	switch m {
	case writeF:
		return "write-f"
	case writeNF:
		return "write-nf"
	default:
		return "nf-hot1%"
	}
}

// fig1Bandwidth measures raw PM write bandwidth (GB/s) for one Fig 1
// configuration on a fresh simulated device.
func fig1Bandwidth(s Scale, zipf bool, mode flushMode, size int) float64 {
	// Fig 1 characterises the hardware model itself, so its platform is
	// fixed rather than scaled with the index workloads: a 256 MB write
	// region against a 16 MB cache, the same cache:working-set ratio as
	// the paper's 42 MB L3 against its hundreds-of-MB test region. The
	// zipfian hot set then fits the cache (Observation 3) while uniform
	// traffic does not (Observation 2).
	cfg := pmem.Config{PoolSize: 512 << 20, CacheSize: 16 << 20}
	pool := pmem.New(cfg)
	region := uint64(256 << 20)
	chunks := region / uint64(size)
	// Fig 1 is defined at 56 threads (§VI-A): PM write bandwidth only
	// becomes the binding constraint — and the flush-strategy effects
	// only appear — once enough workers issue writes in parallel.
	const workers = 56
	// Eviction behaviour (Observation 2) needs the written volume to
	// exceed the cache several times over.
	totalOps := s.MicroOps
	if min := int(4 * cfg.CacheSize / uint64(size)); totalOps < min {
		totalOps = min
	}
	ops := totalOps / workers
	if ops == 0 {
		ops = 1
	}

	// The zipfian constants are computed once; workers fork (as in
	// MixSource).
	var zipfian *ycsb.Zipfian
	if zipf {
		zipfian = ycsb.NewZipfian(chunks, ycsb.DefaultTheta, 1)
	}

	clocks := make([]int64, workers)
	var wg sync.WaitGroup
	for id := 0; id < workers; id++ {
		wg.Add(1)
		go func(id int) {
			defer wg.Done()
			c := pool.NewCtx()
			buf := make([]byte, size)
			rand.New(rand.NewSource(int64(id))).Read(buf)
			var zg *ycsb.Zipfian
			rng := rand.New(rand.NewSource(int64(id)*2654435761 + 3))
			if zipf {
				zg = zipfian.Fork(int64(id)*7 + 1)
			}
			for i := 0; i < ops; i++ {
				var chunk uint64
				hot := false
				if zipf {
					rank := zg.Next()
					hot = rank < chunks/100
					chunk = hash.Sum64Uint64(rank) % chunks
				} else {
					chunk = rng.Uint64() % chunks
				}
				addr := 4096 + chunk*uint64(size)
				//spash:allow pmstore -- raw-bandwidth microbenchmark driving the pool directly; no index invariants are involved
				pool.Write(c, addr, buf)
				if mode == writeF || (mode == writeHybrid && !hot) {
					pool.Flush(c, addr, uint64(size))
					pool.Fence(c)
				}
			}
			clocks[id] = c.Clock()
		}(id)
	}
	wg.Wait()

	res := combine("", pool.Config().Timing, clocks, []pmem.Stats{pool.Stats()}, 0, int64(workers)*int64(ops))
	appBytes := float64(res.Ops) * float64(size)
	return appBytes / float64(res.Elapsed) // bytes per ns == GB/s
}

// fig1 reproduces Fig 1: raw PM write bandwidth under different flush
// strategies, access sizes and access distributions (§II-B,
// Observations 2-4). No index is involved: this exercises the cache +
// XPBuffer model directly.
func fig1(sh *Sheet) []panel {
	sizes := []int{16, 64, 256, 1024, 4096}
	modes := []flushMode{writeF, writeNF, writeHybrid}
	bandwidth := func(title string, zipf bool, modes []flushMode) panel {
		return panel{title, append([]string{"size"}, labels("%v", modes)...), labels("%dB", sizes),
			func(r, c int) value {
				return num(measured(sh, func() (float64, error) {
					return fig1Bandwidth(sh.scale, zipf, modes[c], sizes[r]), nil
				}, "fig1", zipf, modes[c], sizes[r]))
			}}
	}
	return []panel{
		bandwidth("Fig 1(a): PM write bandwidth, uniform (GB/s, 56 workers)", false, modes[:2]),
		bandwidth("Fig 1(b): PM write bandwidth, zipfian 0.99 (GB/s, 56 workers)", true, modes),
	}
}
