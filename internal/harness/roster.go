package harness

import (
	"encoding/binary"
	"fmt"
	"math/rand"

	"spash/internal/alloc"
	"spash/internal/baselines/cceh"
	"spash/internal/baselines/clevel"
	"spash/internal/baselines/dash"
	"spash/internal/baselines/halo"
	"spash/internal/baselines/levelhash"
	"spash/internal/baselines/plush"

	"spash/internal/core"
	"spash/internal/ixapi"
	"spash/internal/pmem"
	"spash/internal/ycsb"
)

// Entry is one row of the constructor table: an index under test.
type Entry struct {
	Name string
	// Open builds the index on a fresh device.
	Open ixapi.Factory
	// Pipeline enables Spash's batched pipelined execution for this
	// entry's read paths.
	Pipeline bool
	// ApproxLen marks an index whose Len is only settled by background
	// merges (LSM-style); the conformance suite then skips its
	// exact-count assertions.
	ApproxLen bool
}

// baseline is the fresh-device constructor of every reimplemented
// baseline: provision a pool, format its allocator, build the index.
func baseline[T ixapi.Index](build func(*pmem.Ctx, *pmem.Pool, *alloc.Allocator) (T, error)) ixapi.Factory {
	return func(platform pmem.Config) (ixapi.Index, error) {
		pool := pmem.New(platform)
		c := pool.NewCtx()
		al, err := alloc.New(c, pool)
		if err != nil {
			return nil, err
		}
		ix, err := build(c, pool, al)
		if err != nil {
			return nil, err
		}
		return ix, nil
	}
}

// roster is the constructor table: every figure, the conformance run
// (TestConformance) and BenchmarkIndex iterate it.
// Adding an index under test is adding a row here.
var roster = []Entry{
	SpashEntry("Spash", 1, core.Config{}),
	// Spash without pipelined execution (the "Spash w/o pipeline"
	// series of Fig 7/10/11).
	SpashEntry("Spash-noPipe", 1, core.Config{PipelineDepth: 1}),
	{Name: "CCEH", Open: baseline(cceh.New)},
	{Name: "Dash", Open: baseline(dash.New)},
	{Name: "Level", Open: baseline(levelhash.New)},
	{Name: "CLevel", Open: baseline(clevel.New)},
	{Name: "Plush", Open: baseline(plush.New), ApproxLen: true},
	{Name: "Halo", Open: baseline(halo.New)},
}

// MacroRoster is the YCSB competitor set (Fig 10/11): the whole table.
func MacroRoster() []Entry { return roster }

// MicroRoster is the Fig 7/8/9 competitor set (the paper excludes Halo
// from the micro-benchmarks: its full-DRAM table does not survive the
// large dataset). The capacity is clipped so that appending to the
// result copies instead of overwriting Halo's row.
func MicroRoster() []Entry { return roster[: len(roster)-1 : len(roster)-1] }

// --- key/value generation -------------------------------------------

// kbuf/vbuf are per-worker scratch sizes.
const keyBytes16 = 16

// inlineKV generates 8-byte inline keys and values for key id.
func inlineKV(buf []byte, id uint64) []byte {
	binary.LittleEndian.PutUint64(buf[:8], id)
	return buf[:8]
}

// uniformSource returns an OpSource issuing `kind` ops on uniform keys
// in [0, n) with inline 8B KVs.
func uniformSource(kind ycsb.OpKind, n uint64, seed int64) OpSource {
	return func(id int) func(i int) Op {
		rng := rand.New(rand.NewSource(seed + int64(id)*7919))
		kb := make([]byte, 8)
		vb := make([]byte, 8)
		return func(i int) Op {
			k := rng.Uint64() % n
			binary.LittleEndian.PutUint64(kb, k)
			binary.LittleEndian.PutUint64(vb, k^0xABCD)
			return Op{Kind: kind, Key: kb, Val: vb}
		}
	}
}

// insertSource returns an OpSource inserting fresh unique inline keys
// starting at base (per-worker disjoint ranges).
func insertSource(base uint64, perWorker int) OpSource {
	return func(id int) func(i int) Op {
		kb := make([]byte, 8)
		vb := make([]byte, 8)
		start := base + uint64(id)*uint64(perWorker)
		return func(i int) Op {
			k := start + uint64(i)
			binary.LittleEndian.PutUint64(kb, k)
			binary.LittleEndian.PutUint64(vb, k+1)
			return Op{Kind: ycsb.OpInsert, Key: kb, Val: vb}
		}
	}
}

// MixSource returns a run-phase OpSource issuing a YCSB mix with values
// of valSize bytes (8 = inline) over a scrambled-zipfian key
// distribution of the given skew.
func MixSource(mix ycsb.Mix, n uint64, theta float64, valSize int, seed int64) OpSource {
	// The zipfian constants are computed once; workers fork.
	base := ycsb.NewScrambled(n, theta, seed)
	return func(id int) func(i int) Op {
		gen := base.Fork(seed + int64(id)*104729)
		rng := rand.New(rand.NewSource(seed + int64(id)*15485863))
		kb := make([]byte, keyBytes16)
		vb := make([]byte, valSize)
		return func(i int) Op {
			kid := gen.Next()
			kind := mix.Pick(rng)
			if valSize == 8 {
				binary.LittleEndian.PutUint64(vb, kid^uint64(i))
				return Op{Kind: kind, Key: inlineKV(kb, kid), Val: vb[:8]}
			}
			ycsb.FillValue(vb, kid^uint64(i))
			return Op{Kind: kind, Key: ycsb.KeyBytes(kb, kid), Val: vb}
		}
	}
}

// LoadSource is the bulk-load op stream: worker id inserts keys
// [id*per, (id+1)*per) with the standard key/value encoding (8 =
// inline 8-byte keys, otherwise 16-byte keys).
func LoadSource(per, valSize int) OpSource {
	return func(id int) func(i int) Op {
		kb := make([]byte, keyBytes16)
		vb := make([]byte, valSize)
		start := uint64(id * per)
		return func(i int) Op {
			kid := start + uint64(i)
			if valSize == 8 {
				binary.LittleEndian.PutUint64(vb, kid+1)
				return Op{Kind: ycsb.OpInsert, Key: inlineKV(kb, kid), Val: vb[:8]}
			}
			ycsb.FillValue(vb, kid)
			return Op{Kind: ycsb.OpInsert, Key: ycsb.KeyBytes(kb, kid), Val: vb}
		}
	}
}

// LoadIndex bulk-loads n keys with the given value size (8 = inline
// 8-byte keys, otherwise 16-byte keys). Returns the load-phase result.
func LoadIndex(ix ixapi.Index, workers, n, valSize int, pipeline bool) Result {
	per := n / workers
	return Run("load", ix, workers, per, pipeline, LoadSource(per, valSize), nil)
}

// mustOpen builds an entry's index on the scale's platform.
func mustOpen(e Entry, s Scale) (ixapi.Index, error) {
	ix, err := e.Open(s.Platform())
	if err != nil {
		return nil, fmt.Errorf("building %s: %w", e.Name, err)
	}
	return ix, nil
}
