package obs

import "testing"

// The registry's hot-path cost: one padded atomic add when enabled,
// one nil check when disabled. Compare with the ~dozens of simulated
// memory events per index operation to see why the instrumented hot
// path stays within noise (see also BenchmarkObsOverhead in
// internal/core).

func BenchmarkLaneInc(b *testing.B) {
	ln := NewRegistrySized(4, 64).Lane()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		ln.Inc(CSplits)
	}
}

func BenchmarkLaneIncDisabled(b *testing.B) {
	var ln *Lane
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		ln.Inc(CSplits)
	}
}

func BenchmarkLaneObserve(b *testing.B) {
	ln := NewRegistrySized(4, 64).Lane()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		ln.Observe(HProbeLen, i&7)
	}
}

func BenchmarkTraceAdd(b *testing.B) {
	r := NewRegistrySized(4, DefaultRingSize)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		r.Trace(EvSplit, int64(i), 1, 2)
	}
}

// Span path costs. Unsampled is the common case (one Active check per
// site, no allocation); sampled pays the histogram adds and a slow-log
// offer at operation end only.

func BenchmarkSpanRecordSampled(b *testing.B) {
	ln := NewRegistrySized(4, 64).Lane()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		sp := Span{Active: true, Kind: SpanInsert, Key: uint64(i)}
		sp.Dur[PhaseProbe] = int64(i & 1023)
		sp.Dur[PhasePublish] = 32
		ln.RecordSpan(&sp, int64(i&1023)+32)
	}
}

func BenchmarkSpanRecordUnsampled(b *testing.B) {
	ln := NewRegistrySized(4, 64).Lane()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		sp := Span{} // Active=false: the per-op cost when not elected
		ln.RecordSpan(&sp, int64(i))
	}
}
