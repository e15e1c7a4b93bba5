package harness

import (
	"fmt"
	"sort"
	"sync"
)

// LatencyHist collects per-operation virtual latencies (the delta of
// the worker clock across one operation) so tail behaviour can be
// reported — the paper credits collaborative staged doubling with
// "reduc[ing] the tail latency" (§IV-B).
type LatencyHist struct {
	mu      sync.Mutex
	samples []int64
	sorted  []int64 // cached ascending copy, invalidated by add
}

// Add records a batch of latency samples (ns): a worker's virtual
// per-operation latencies from Run.
func (h *LatencyHist) Add(batch []int64) {
	h.mu.Lock()
	h.samples = append(h.samples, batch...)
	h.sorted = nil
	h.mu.Unlock()
}

// sortedSamples returns an ascending copy of the samples, built under
// the lock on first use after a mutation and cached so repeated
// percentile queries sort once. The samples themselves are never
// reordered, so concurrent adders and readers don't race.
func (h *LatencyHist) sortedSamples() []int64 {
	h.mu.Lock()
	defer h.mu.Unlock()
	if h.sorted == nil && len(h.samples) > 0 {
		h.sorted = append([]int64(nil), h.samples...)
		sort.Slice(h.sorted, func(i, j int) bool { return h.sorted[i] < h.sorted[j] })
	}
	return h.sorted
}

// Percentile returns the p-th percentile latency in virtual ns.
func (h *LatencyHist) Percentile(p float64) int64 {
	s := h.sortedSamples()
	if len(s) == 0 {
		return 0
	}
	idx := int(p / 100 * float64(len(s)-1))
	return s[idx]
}

// Count returns the number of recorded samples.
func (h *LatencyHist) Count() int {
	h.mu.Lock()
	defer h.mu.Unlock()
	return len(h.samples)
}

// LatencySummary is the JSON-artifact form of the distribution
// (virtual ns).
type LatencySummary struct {
	Count int   `json:"count"`
	P50   int64 `json:"p50_ns"`
	P90   int64 `json:"p90_ns"`
	P99   int64 `json:"p99_ns"`
	P999  int64 `json:"p999_ns"`
	Max   int64 `json:"max_ns"`
}

// Summary captures the percentiles reported in the paper's latency
// figures into a serialisable struct.
func (h *LatencyHist) Summary() LatencySummary {
	return LatencySummary{
		Count: h.Count(),
		P50:   h.Percentile(50),
		P90:   h.Percentile(90),
		P99:   h.Percentile(99),
		P999:  h.Percentile(99.9),
		Max:   h.Max(),
	}
}

// Max returns the worst-case latency.
func (h *LatencyHist) Max() int64 { return h.Percentile(100) }

// String summarises the distribution.
func (h *LatencyHist) String() string {
	return fmt.Sprintf("p50=%dns p99=%dns p99.9=%dns max=%dns",
		h.Percentile(50), h.Percentile(99), h.Percentile(99.9), h.Max())
}
