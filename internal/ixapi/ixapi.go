// Package ixapi defines the one interface "an index under test" has:
// Spash (through its public spash.DB) and every reimplemented baseline
// (CCEH, Dash, Level hashing, CLevel, Plush, Halo) implement it, and
// the conformance suite and the benchmark harness drive them through
// nothing else. The constructor table that names the implementations
// is internal/harness's roster.
package ixapi

import (
	"spash/internal/core"
	"spash/internal/obs"
	"spash/internal/pmem"
	"spash/internal/vsync"
)

// Index is a persistent hash index over one or more simulated PM pools.
type Index interface {
	// Name identifies the index in benchmark output.
	Name() string
	// NewWorker returns a per-goroutine execution handle.
	NewWorker() Worker
	// Len returns the number of live key-value pairs.
	Len() int
	// LoadFactor returns entries / slot capacity (Fig 9).
	LoadFactor() float64
	// Pools returns the simulated devices the index lives on, one per
	// partition (a monolithic index has one). The harness meters media
	// traffic per device and bounds elapsed time by the hottest one:
	// partitioned DIMMs have independent bandwidth.
	Pools() []*pmem.Pool
	// Groups returns the lock/commit serialisation domains, one per
	// partition. The harness bounds elapsed time by the hottest group:
	// commit serialisation does not accumulate across independent
	// partitions.
	Groups() []*vsync.Group
}

// Worker is a per-goroutine handle. Implementations are not safe for
// concurrent use of one Worker.
type Worker interface {
	Insert(key, val []byte) error
	Search(key, dst []byte) ([]byte, bool, error)
	Update(key, val []byte) (bool, error)
	Delete(key []byte) (bool, error)
	// ResetClock zeroes the worker's virtual clock and Clock reads it,
	// in virtual ns. A worker that keeps one pmem context per
	// partition reports their sum: one thread executes its operations
	// serially, whichever partition they land on.
	ResetClock()
	Clock() int64
	Close()
}

// Batcher is the optional Worker capability of pipelined batch
// execution (§III-D); of the indexes in the tree only Spash has it.
type Batcher interface {
	ExecBatch(ops []core.BatchOp)
}

// Observed is the optional Index capability of exporting the unified
// observability feeds (aggregate and per-partition snapshots, slow-op
// log, health, trace registry); of the indexes in the tree only Spash
// has it.
type Observed interface {
	ExportSources() obs.Sources
}

// Factory creates a fresh index on a fresh device.
type Factory func(platform pmem.Config) (Index, error)
