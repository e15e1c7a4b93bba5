// Package shard is the unit of horizontal partitioning: one simulated
// PM pool with its allocator, one core.Index, and one bootstrap
// context, self-contained enough that N of them compose into a
// partitioned database with no shared state at all.
//
// Every shard owns a private HTM domain (its index's transactional
// memory, version-stripe table and vsync serialisation group) and a
// private media device (pool, CPU-cache model and XPBuffer). Nothing
// is shared between shards — no version clock, no allocator arena, no
// commit token — so the cross-shard coordination cost is exactly zero,
// the property Dash argues a PM hash table needs to scale and the
// Spash paper demonstrates up to 224 threads.
//
// Routing uses the LOW bits of the 64-bit key hash (Of). The core
// index resolves its directory with the HIGH bits (hash.Prefix), so
// the two partitioning levels draw from disjoint ends of the hash:
// conditioning on a shard leaves the in-shard directory distribution
// uniform, and every shard grows the same balanced extendible
// structure a standalone index would.
package shard

import (
	"fmt"
	"runtime"
	"sync"

	"spash/internal/alloc"
	"spash/internal/core"
	"spash/internal/pmem"
)

// Unit is one self-contained shard: a simulated device, its allocator,
// the index living on it, and the bootstrap context used to build or
// recover it.
type Unit struct {
	Pool  *pmem.Pool
	Alloc *alloc.Allocator
	Ix    *core.Index
	Ctx   *pmem.Ctx
}

// Of routes a key hash to one of n shards using the low hash bits
// (disjoint from the directory's high-bit prefix; see the package
// comment). n must be >= 1.
func Of(h uint64, n int) int {
	if n <= 1 {
		return 0
	}
	return int(h % uint64(n))
}

// DefaultShards is the shard count a zero Options.Shards resolves to:
// one shard per schedulable CPU, the configuration that divides the
// machine's cores among independent HTM domains.
func DefaultShards() int { return runtime.GOMAXPROCS(0) }

// minPoolPerShard keeps a split shard pool large enough for the
// allocator's root area, the segment registry, a seal table and an
// initial directory of segments.
const minPoolPerShard = 4 << 20

// SplitPlatform derives the per-shard device configuration from a
// whole-database platform config. Pool capacity is divided so N shards
// store the same total data a single-shard database would (a floor
// keeps tiny configurations usable). The cache is NOT divided: the
// hardware analogue of a shard is a socket of the paper's 4-socket,
// 224-thread testbed, and every socket brings its own LLC (and its own
// DIMM bandwidth — which is why the harness bounds media time by the
// hottest device rather than summing). With n == 1 the configuration
// is returned unchanged, preserving exact single-shard behaviour.
func SplitPlatform(cfg pmem.Config, n int) pmem.Config {
	if n <= 1 {
		return cfg
	}
	full := cfg
	if full.PoolSize == 0 {
		full.PoolSize = pmem.DefaultConfig().PoolSize
	}
	full.PoolSize /= uint64(n)
	if full.PoolSize < minPoolPerShard {
		full.PoolSize = minPoolPerShard
	}
	return full
}

// Open provisions a fresh device and builds a new index on it.
func Open(platform pmem.Config, cfg core.Config) (*Unit, error) {
	pool := pmem.New(platform)
	c := pool.NewCtx()
	al, err := alloc.New(c, pool)
	if err != nil {
		return nil, fmt.Errorf("formatting pool: %w", err)
	}
	ix, err := core.Open(c, pool, al, cfg)
	if err != nil {
		return nil, fmt.Errorf("creating index: %w", err)
	}
	return &Unit{Pool: pool, Alloc: al, Ix: ix, Ctx: c}, nil
}

// Recover reopens a shard on an existing device.
func Recover(pool *pmem.Pool, cfg core.Config) (*Unit, error) {
	c := pool.NewCtx()
	ix, al, err := core.Recover(c, pool, cfg)
	if err != nil {
		return nil, err
	}
	return &Unit{Pool: pool, Alloc: al, Ix: ix, Ctx: c}, nil
}

// Parallel runs fn(i) for i in [0,n) on n goroutines and returns the
// first error (by index order, so fan-out failures are deterministic).
func Parallel(n int, fn func(i int) error) error {
	if n == 1 {
		return fn(0)
	}
	errs := make([]error, n)
	var wg sync.WaitGroup
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			errs[i] = fn(i)
		}(i)
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return err
		}
	}
	return nil
}

// OpenAll provisions n fresh shards in parallel, each on a device
// derived from platform by SplitPlatform. The first failure (in shard
// order) aborts the open.
func OpenAll(n int, platform pmem.Config, cfg core.Config) ([]*Unit, error) {
	if n < 1 {
		return nil, fmt.Errorf("shard: invalid shard count %d", n)
	}
	per := SplitPlatform(platform, n)
	units := make([]*Unit, n)
	err := Parallel(n, func(i int) error {
		u, err := Open(per, cfg)
		if err != nil {
			return fmt.Errorf("shard %d: %w", i, err)
		}
		u.Ix.SetShard(i)
		units[i] = u
		return nil
	})
	if err != nil {
		return nil, err
	}
	return units, nil
}

// RecoverAll reopens one shard per existing device, in parallel. The
// slice order defines the shard order and must match the order the
// database was opened with (the router depends on it).
func RecoverAll(pools []*pmem.Pool, cfg core.Config) ([]*Unit, error) {
	n := len(pools)
	if n == 0 {
		return nil, fmt.Errorf("shard: no devices to recover")
	}
	units := make([]*Unit, n)
	err := Parallel(n, func(i int) error {
		if pools[i] == nil {
			return fmt.Errorf("shard %d: nil device", i)
		}
		u, err := Recover(pools[i], cfg)
		if err != nil {
			return fmt.Errorf("shard %d: %w", i, err)
		}
		u.Ix.SetShard(i)
		units[i] = u
		return nil
	})
	if err != nil {
		return nil, err
	}
	// Every device must carry the same promotion epoch: a mixed set
	// means the caller assembled shards from different replication
	// histories (e.g. one device from a deposed primary), and routing
	// across them would silently interleave divergent timelines.
	for i := 1; i < n; i++ {
		if e0, ei := units[0].Ix.Epoch(), units[i].Ix.Epoch(); ei != e0 {
			return nil, fmt.Errorf("shard %d: %w", i,
				&core.GeometryError{Field: "epoch", Device: ei, Requested: e0})
		}
	}
	return units, nil
}

// SplitBatch executes a pipelined batch against per-shard handles:
// ops are partitioned by key hash and each shard's share runs through
// that shard's pipelined path, in place (Result/Found/Err land in the
// caller's slice; nothing is copied or allocated). Order within a shard
// is preserved; cross-shard order is not observable to the caller
// because batch results are positional.
func SplitBatch(hs []*core.Handle, ops []core.BatchOp) {
	if len(hs) == 1 {
		hs[0].ExecBatch(ops)
		return
	}
	core.ExecSplit(hs, ops, Of)
}
