// Package harness drives the reproduction of the paper's evaluation
// (§VI): it runs workloads against the indexes through the common
// ixapi interface, measures them in virtual time, and regenerates
// every table and figure of the figure table (figures.go), whose cells
// claims_test.go checks the paper's claims against (EXPERIMENTS.md).
//
// # The virtual-time elapsed model
//
// Workers are goroutines, but throughput is measured in simulated
// nanoseconds, independent of the host CPU count. Each worker's pmem
// context accumulates the latency of its memory events; locks and HTM
// commits accumulate serial time in a vsync.Group; the pool counts the
// bytes that reach PM media. A phase's elapsed time is the binding
// constraint:
//
//	elapsed = max( max worker clock,            // CPU/latency bound
//	               Δ hottest-lock serial time,  // contention bound
//	               Δ media read bytes  / read bandwidth,
//	               Δ media write bytes / write bandwidth )
//
// which reproduces the paper's bottleneck structure: lock-based
// designs saturate on hot locks under skew, write-heavy designs on PM
// write bandwidth, read-heavy designs on read latency (until
// pipelining hides it).
package harness

import (
	"fmt"

	"spash/internal/ixapi"
	"spash/internal/pmem"
	"spash/internal/vsync"
)

// Result is one measured phase.
type Result struct {
	Name    string
	Ops     int64
	Elapsed int64 // virtual ns
	// Mem is the phase's memory-event delta.
	Mem pmem.Stats
	// Bound names the binding constraint (cpu, lock, read-bw,
	// write-bw), useful when interpreting shapes.
	Bound string
}

// Throughput returns million operations per (virtual) second.
func (r Result) Throughput() float64 {
	if r.Elapsed == 0 {
		return 0
	}
	return float64(r.Ops) / float64(r.Elapsed) * 1e3
}

// PerOp returns a per-operation average of a counter.
func (r Result) PerOp(count uint64) float64 {
	if r.Ops == 0 {
		return 0
	}
	return float64(count) / float64(r.Ops)
}

// measure snapshots every device and serialisation group of an index
// at phase start; finish computes the phase's deltas. Media time is
// bounded by the hottest device (independent DIMM bandwidth) and serial
// time by the hottest group, while the reported memory delta sums all
// devices. For a monolithic index (one device, one group) this is the
// single-pool arithmetic.
type measure struct {
	ix      ixapi.Index
	pools   []*pmem.Pool
	groups  []*vsync.Group
	mem0    []pmem.Stats
	serial0 []int64
}

func startMeasure(ix ixapi.Index) *measure {
	m := &measure{ix: ix, pools: ix.Pools(), groups: ix.Groups()}
	m.mem0 = make([]pmem.Stats, len(m.pools))
	for i, p := range m.pools {
		m.mem0[i] = p.Stats()
	}
	m.serial0 = make([]int64, len(m.groups))
	for i, g := range m.groups {
		m.serial0[i] = g.MaxSerialNS()
	}
	return m
}

func (m *measure) finish(name string, clocks []int64, ops int64) Result {
	deltas := make([]pmem.Stats, len(m.pools))
	for i, p := range m.pools {
		deltas[i] = p.Stats().Sub(m.mem0[i])
	}
	serial := int64(0)
	for i, g := range m.groups {
		if d := g.MaxSerialNS() - m.serial0[i]; d > serial {
			serial = d
		}
	}
	res := combine(name, m.pools[0].Config().Timing, clocks, deltas, serial, ops)
	recordPhase(m.ix, res)
	return res
}

// Scale bundles the workload sizes; the paper's 20M/100M-key, 8G-op
// runs are scaled down to fit a laptop-class container, preserving the
// ratios that matter (table ≫ CPU cache, ops ≫ table warmup).
type Scale struct {
	// MicroLoad is the preload size of the micro-benchmarks (paper:
	// 20M).
	MicroLoad int
	// MicroOps is the per-phase operation count (paper: 8G).
	MicroOps int
	// YCSBLoad and YCSBOps size the macro benchmark (paper: 100M +
	// 100M).
	YCSBLoad int
	YCSBOps  int
	// Threads is the worker counts swept in scalability figures
	// (paper: 1..56 step 7).
	Threads []int
	// MaxThreads is the fixed worker count of single-point figures
	// (paper: 56).
	MaxThreads int
	// CacheBytes sizes the simulated CPU cache. It must stay well
	// below the table footprint (the paper's 42 MB L3 is ~3%% of its
	// 100M-key tables) or PM traffic disappears into the cache.
	CacheBytes uint64
}

// ScaleSmall is for tests and quick runs; ScaleMedium is the default
// for regenerating the figures.
var (
	ScaleSmall = Scale{
		MicroLoad: 20000, MicroOps: 20000,
		YCSBLoad: 20000, YCSBOps: 20000,
		Threads: []int{1, 4, 8}, MaxThreads: 8,
		CacheBytes: 256 << 10,
	}
	ScaleMedium = Scale{
		MicroLoad: 200000, MicroOps: 200000,
		YCSBLoad: 200000, YCSBOps: 200000,
		Threads: []int{1, 7, 14, 28, 56}, MaxThreads: 56,
		CacheBytes: 1 << 20,
	}
	ScaleLarge = Scale{
		MicroLoad: 1000000, MicroOps: 1000000,
		YCSBLoad: 1000000, YCSBOps: 1000000,
		Threads: []int{1, 7, 14, 28, 42, 56}, MaxThreads: 56,
		CacheBytes: 4 << 20,
	}
)

// ScaleByName resolves a -scale flag value.
func ScaleByName(s string) (Scale, error) {
	switch s {
	case "small":
		return ScaleSmall, nil
	case "", "medium":
		return ScaleMedium, nil
	case "large":
		return ScaleLarge, nil
	}
	return Scale{}, fmt.Errorf("unknown scale %q (small|medium|large)", s)
}

// Platform returns the simulated-device configuration used by all
// experiments: pool sized for the workload, an 8 MB cache (scaled-down
// analogue of the testbed's 42 MB L3 against its 100M-key tables).
func (s Scale) Platform() pmem.Config {
	poolSize := uint64(s.YCSBLoad) * 4096
	if poolSize < (512 << 20) {
		poolSize = 512 << 20
	}
	cache := s.CacheBytes
	if cache == 0 {
		cache = 1 << 20
	}
	return pmem.Config{
		PoolSize:  poolSize,
		CacheSize: cache,
		Mode:      pmem.EADR,
	}
}
