// Package pmem simulates a byte-addressable persistent memory device
// together with the CPU cache hierarchy in front of it. It is the
// substrate every index in this repository is built on.
//
// The simulation reproduces the behaviours the Spash paper's design
// exploits (ICDE'24, §II):
//
//   - The CPU cache is modelled as a shared set-associative cache with
//     dirty-line tracking and LRU eviction. Stores hit or allocate
//     lines; dirty lines reach the PM media only on eviction, on an
//     explicit flush (clwb), or on a non-temporal store.
//   - The PM media has a 256-byte internal access granularity (an
//     "XPLine"). A small write-combining buffer (the "XPBuffer")
//     coalesces adjacent line write-backs; random evictions of lines
//     from many different XPLines thrash it and cause write
//     amplification, exactly as in the paper's Observation 2.
//   - The persistence domain is configurable: EADR includes the CPU
//     cache (dirty lines survive a crash), ADR does not (dirty lines
//     roll back to their media image on Crash).
//
// Because the host running this reproduction has no PM hardware and
// may have a single CPU, performance is measured in virtual time: each
// worker goroutine owns a Ctx whose clock is charged for every memory
// event according to the cost model (DefaultTiming). The harness combines
// worker clocks with the media bandwidth counters to obtain elapsed
// time for a multi-worker run (see the harness package).
package pmem

// CachelineSize is the CPU cacheline size in bytes.
const CachelineSize = 64

// XPLineSize is the internal access granularity of the simulated PM
// media (the 3D-XPoint "XPLine" from the paper's Observation 1).
const XPLineSize = 256

// Mode selects the persistence domain of the simulated platform.
type Mode int

const (
	// EADR places the CPU cache inside the persistence domain: data
	// is durable as soon as the store retires (the paper's target
	// platform, Barlow Pass + eADR).
	EADR Mode = iota
	// ADR keeps the CPU cache volatile: only data that reached the
	// media (via flush, eviction, or ntstore) survives a crash.
	ADR
)

func (m Mode) String() string {
	if m == ADR {
		return "ADR"
	}
	return "eADR"
}

// The virtual-time cost model, in nanoseconds: the one device the paper
// measures. The values approximate the Optane DCPMM characterisation
// from the paper and from Yang et al. (FAST'20). The hot path charges
// these constants; DefaultTiming hands them to the harness and tests.
const (
	// hitLoadNS is charged for a load served by the CPU cache.
	hitLoadNS = 8
	// missLoadNS is charged for a load that misses the cache and
	// fetches the line from PM media.
	missLoadNS = 300
	// hitStoreNS is charged for a store to a resident line.
	hitStoreNS = 8
	// missStoreNS is charged for a store that must first fetch
	// (write-allocate) the line from PM media. Much lower than the
	// load miss: the store buffer and out-of-order engine hide most
	// of the RFO latency (the fetched data is not a dependency), so
	// write-heavy workloads are bandwidth-bound, not latency-bound —
	// as on the paper's testbed.
	missStoreNS = 60
	// flushIssueNS is charged for issuing a clwb; the write-back
	// itself proceeds asynchronously and is accounted in media
	// bandwidth.
	flushIssueNS = 25
	// fenceDrainNS is charged by Fence when flushes are outstanding,
	// fenceIdleNS when nothing is.
	fenceDrainNS = 90
	fenceIdleNS  = 5
	// ntStoreLineNS is charged per cacheline moved by a non-temporal
	// store.
	ntStoreLineNS = 60
	// dramAccessNS is the cost helpers charge for touching volatile
	// (DRAM) structures such as the directory.
	dramAccessNS = 5
)

// Timing is the cost model as a value; each cost field holds the constant
// of the same meaning above. PMReadBandwidth and PMWriteBandwidth are the
// aggregate media bandwidths in bytes per second, used by the harness
// to bound elapsed time from the media byte counters.
type Timing struct {
	CacheHitLoad, CacheMissLoad, CacheHitStore, CacheMissStore int64
	FlushIssue, FenceDrain, FenceIdle, NTStoreLine, DRAMAccess int64
	PMReadBandwidth, PMWriteBandwidth                          float64
}

// DefaultTiming returns the cost model every Pool charges.
func DefaultTiming() Timing {
	return Timing{
		CacheHitLoad:     hitLoadNS,
		CacheMissLoad:    missLoadNS,
		CacheHitStore:    hitStoreNS,
		CacheMissStore:   missStoreNS,
		FlushIssue:       flushIssueNS,
		FenceDrain:       fenceDrainNS,
		FenceIdle:        fenceIdleNS,
		NTStoreLine:      ntStoreLineNS,
		DRAMAccess:       dramAccessNS,
		PMReadBandwidth:  40e9,
		PMWriteBandwidth: 15e9,
	}
}

// Config describes a simulated PM platform.
type Config struct {
	// PoolSize is the simulated PM capacity in bytes. It is rounded
	// up to a whole number of XPLines and must stay below 2^38 (the
	// cache model tags lines with 32 bits).
	PoolSize uint64
	// Mode selects the persistence domain (EADR by default).
	Mode Mode
	// CacheSize is the capacity of the simulated CPU cache in bytes
	// (the paper's testbed has a 42 MB shared L3).
	CacheSize uint64
	// CacheWays is the cache associativity, at most 16.
	CacheWays int
	// XPBufferLines is the number of XPLine entries in the media
	// write-combining buffer.
	XPBufferLines int
}

// DefaultConfig returns a platform sized for tests and examples:
// 256 MB pool, 8 MB cache, eADR.
func DefaultConfig() Config {
	return Config{
		PoolSize:      256 << 20,
		Mode:          EADR,
		CacheSize:     8 << 20,
		CacheWays:     16,
		XPBufferLines: 64,
	}
}

func (c Config) withDefaults() Config {
	if c.PoolSize == 0 {
		c.PoolSize = 256 << 20
	}
	c.PoolSize = (c.PoolSize + XPLineSize - 1) &^ uint64(XPLineSize-1)
	if c.CacheSize == 0 {
		c.CacheSize = 8 << 20
	}
	if c.CacheWays == 0 {
		c.CacheWays = 16
	}
	if c.XPBufferLines == 0 {
		c.XPBufferLines = 64
	}
	return c
}
