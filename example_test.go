package spash_test

import (
	"fmt"
	"log"

	"spash"
)

// The basic lifecycle: open a simulated eADR device, store data,
// survive a power failure.
func Example() {
	db, err := spash.Open(spash.Options{Shards: 1})
	if err != nil {
		log.Fatal(err)
	}
	s := db.Session()
	if err := s.Insert([]byte("hello"), []byte("world")); err != nil {
		log.Fatal(err)
	}

	platforms := db.Platforms()
	lost := db.Crash() // power failure; eADR cache is persistent
	db2, err := spash.RecoverAll(platforms, spash.Options{})
	if err != nil {
		log.Fatal(err)
	}
	val, ok, _ := db2.Session().Get([]byte("hello"), nil)
	fmt.Printf("lost=%d found=%v value=%s\n", lost, ok, val)
	// Output: lost=0 found=true value=world
}

// Pipelined batches overlap PM read latency (the paper's §III-D).
func ExampleSession_ExecBatch() {
	db, _ := spash.Open(spash.Options{})
	s := db.Session()
	s.Insert([]byte("a"), []byte("1"))
	s.Insert([]byte("b"), []byte("2"))

	ops := []spash.Op{
		{Kind: spash.OpGet, Key: []byte("a")},
		{Kind: spash.OpGet, Key: []byte("b")},
		{Kind: spash.OpGet, Key: []byte("missing")},
	}
	s.ExecBatch(ops)
	fmt.Printf("%s %s found=%v\n", ops[0].Result, ops[1].Result, ops[2].Found)
	// Output: 1 2 found=false
}

// The ablation knobs reproduce the paper's Fig 12 variants.
func ExampleOptions() {
	db, err := spash.Open(spash.Options{
		Shards: 1, // single shard: Indexes()[0] is the one index
		Index: spash.IndexOptions{
			Concurrency:   spash.ModeWriteLock,    // Fig 12(c) variant
			Update:        spash.UpdateNeverFlush, // Fig 12(a) variant
			PipelineDepth: 1,                      // Fig 12(d): no pipelining
		},
	})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println(db.Indexes()[0].Config().Concurrency)
	// Output: write-lock
}
