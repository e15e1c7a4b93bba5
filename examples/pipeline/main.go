// Pipeline example: the batched, pipelined execution of §III-D.
//
// An analytics-style job performs bulk point lookups over a table far
// larger than the CPU cache, so nearly every lookup pays a PM read.
// Issued one at a time, the reads serialise on PM latency; issued
// through ExecBatch, the index prefetches the target buckets of the
// next PipelineDepth requests so their latencies overlap.
//
// The effect is measured in virtual time (the simulated platform's
// clock), so the numbers are independent of the host machine.
package main

import (
	"encoding/binary"
	"fmt"
	"log"
	"math/rand"

	"spash"
)

const (
	tableSize = 300000
	lookups   = 100000
)

func key(buf []byte, id uint64) []byte {
	binary.LittleEndian.PutUint64(buf, id)
	return buf[:8]
}

func run(depth int) (virtualMS float64) {
	platform := spash.DefaultPlatform()
	platform.PoolSize = 512 << 20
	platform.CacheSize = 1 << 20 // table ≫ cache: lookups miss
	db, err := spash.Open(spash.Options{
		Platform: platform,
		Index:    spash.IndexOptions{PipelineDepth: depth},
		// One shard, so the whole batch runs through one pipeline on one
		// virtual clock whatever the host's CPU count.
		Shards: 1,
	})
	if err != nil {
		log.Fatal(err)
	}
	s := db.Session()
	defer s.Close()

	kb := make([]byte, 8)
	for i := uint64(0); i < tableSize; i++ {
		if err := s.Insert(key(kb, i), key(kb, i)); err != nil {
			log.Fatal(err)
		}
	}

	rng := rand.New(rand.NewSource(7))
	ops := make([]spash.Op, lookups)
	for i := range ops {
		k := make([]byte, 8)
		ops[i] = spash.Op{Kind: spash.OpGet, Key: key(k, rng.Uint64()%tableSize)}
	}

	clock := s.ShardCtx(0)
	clock.ResetClock()
	s.ExecBatch(ops)
	for i := range ops {
		if !ops[i].Found {
			log.Fatalf("lookup %d missed", i)
		}
	}
	return float64(clock.Clock()) / 1e6
}

func main() {
	fmt.Printf("%d point lookups over a %d-key table (virtual time):\n\n", lookups, tableSize)
	base := run(1)
	fmt.Printf("  PD=1 (no pipelining): %7.1f ms\n", base)
	for _, pd := range []int{2, 4, 8} {
		ms := run(pd)
		fmt.Printf("  PD=%d:                %7.1f ms  (%.2fx)\n", pd, ms, base/ms)
	}
	fmt.Println("\nPD=4 captures most of the available overlap — the paper's choice (Fig 12d).")
}
