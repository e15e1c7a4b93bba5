// Recovery example: demonstrates durable linearizability under eADR
// (§II-C) and its violation on an ADR platform without flushes.
//
// Part 1 (eADR): concurrent workers apply writes, the machine loses
// power at a random point, and after recovery every operation that had
// completed is verified present — visibility implied durability.
//
// Part 2 (ADR, flushes removed): the same experiment on a platform
// whose CPU cache is volatile shows completed-but-unflushed writes
// vanishing — the inconsistency window the paper's target hardware
// eliminates.
package main

import (
	"encoding/binary"
	"fmt"
	"log"
	"sync"

	"spash"
)

func k64(v uint64) []byte {
	b := make([]byte, 8)
	binary.LittleEndian.PutUint64(b, v)
	return b
}

func main() {
	fmt.Println("=== Part 1: eADR — durable linearizability ===")
	eadr()
	fmt.Println("\n=== Part 2: ADR without flushes — data loss ===")
	adr()
}

func eadr() {
	db, err := spash.Open(spash.Options{})
	if err != nil {
		log.Fatal(err)
	}
	const workers, opsEach = 6, 5000
	completed := make([]map[uint64]uint64, workers)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		completed[w] = make(map[uint64]uint64)
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			s := db.Session()
			defer s.Close()
			base := uint64(w) * 1_000_000
			for i := uint64(0); i < opsEach; i++ {
				k, v := base+i%2000, i
				if err := s.Insert(k64(k), k64(v)); err != nil {
					log.Fatal(err)
				}
				completed[w][k] = v // this op has returned: it must survive
			}
		}(w)
	}
	wg.Wait()

	platforms := db.Platforms()
	lost := db.Crash()
	fmt.Printf("power failure: %d cachelines lost across %d shard devices\n", lost, len(platforms))

	db2, err := spash.RecoverAll(platforms, spash.Options{})
	if err != nil {
		log.Fatal(err)
	}
	s := db2.Session()
	checked, bad := 0, 0
	for w := 0; w < workers; w++ {
		for k, v := range completed[w] {
			got, ok, _ := s.Get(k64(k), nil)
			checked++
			if !ok || binary.LittleEndian.Uint64(got) != v {
				bad++
			}
		}
	}
	fmt.Printf("verified %d completed operations after recovery: %d violations\n", checked, bad)
	if bad == 0 {
		fmt.Println("durable linearizability holds: everything that completed survived")
	}
}

func adr() {
	// Same store, but the platform's CPU cache is volatile (ADR) and
	// the index is configured to never flush — the paper's premise for
	// why removing flushes is only safe with eADR.
	platformCfg := spash.DefaultPlatform()
	platformCfg.Mode = spash.ADR
	db, err := spash.Open(spash.Options{
		Platform: platformCfg,
		Shards:   1, // one device keeps the lost-line count simple
		Index: spash.IndexOptions{
			Update: spash.UpdateNeverFlush,
			Insert: spash.InsertCompactNoFlush,
		},
	})
	if err != nil {
		log.Fatal(err)
	}
	s := db.Session()
	const n = 20000
	for i := uint64(0); i < n; i++ {
		if err := s.Insert(k64(i), k64(i)); err != nil {
			log.Fatal(err)
		}
	}
	platforms := db.Platforms()
	lost := db.Crash()
	fmt.Printf("power failure: %d dirty cachelines rolled back (volatile cache!)\n", lost)

	db2, err := spash.RecoverAll(platforms, spash.Options{})
	if err != nil {
		fmt.Printf("recovery failed outright: %v\n", err)
		fmt.Println("(the index's own metadata was among the lost lines)")
		return
	}
	s2 := db2.Session()
	missing := 0
	for i := uint64(0); i < n; i++ {
		if _, ok, _ := s2.Get(k64(i), nil); !ok {
			missing++
		}
	}
	fmt.Printf("%d of %d completed inserts are GONE — visibility without durability\n", missing, n)
}
