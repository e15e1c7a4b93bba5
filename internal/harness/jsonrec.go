package harness

import (
	"encoding/json"
	"os"
	"sync"
	"sync/atomic"

	"spash/internal/ixapi"
	"spash/internal/obs"
	"spash/internal/pmem"
)

// ResultJSON is the serialisable form of one measured phase.
type ResultJSON struct {
	Name      string     `json:"name"`
	Ops       int64      `json:"ops"`
	ElapsedNS int64      `json:"elapsed_ns"`
	Mops      float64    `json:"mops"`
	Bound     string     `json:"bound"`
	Mem       pmem.Stats `json:"mem"`
}

func resultJSON(r Result) ResultJSON {
	return ResultJSON{
		Name:      r.Name,
		Ops:       r.Ops,
		ElapsedNS: r.Elapsed,
		Mops:      r.Throughput(),
		Bound:     r.Bound,
		Mem:       r.Mem,
	}
}

// Artifact is the machine-readable record of one figure run, written
// as BENCH_<name>.json so CI and analysis scripts consume measurements
// without parsing tables.
type Artifact struct {
	Schema  string            `json:"schema"`
	Name    string            `json:"name"`
	Config  map[string]string `json:"config,omitempty"`
	Results []ResultJSON      `json:"results"`
	Latency *LatencySummary   `json:"latency,omitempty"`
	// ObsTotal is the unified observability snapshot (media traffic,
	// HTM, structural counters, probe histograms, derived rates) of the
	// last observed index under test, cumulative over its whole
	// lifetime, including the load phase (this is where splits,
	// doublings and segment churn show up).
	ObsTotal *obs.Snapshot `json:"obs_total,omitempty"`
	// ObsShards are the per-shard cumulative snapshots (shard order;
	// one for a monolithic Spash) of an observed index under test — the
	// per-shard phase-latency and abort breakdown the attribution
	// tooling (spash-top, obs-smoke) reads.
	ObsShards []obs.Snapshot `json:"obs_shards,omitempty"`
}

// ArtifactSchema versions the JSON layout.
const ArtifactSchema = "spash-bench/v1"

// Recorder accumulates the phases of one benchmark invocation into an
// Artifact. Install it with SetRecorder; Run then records every
// measured phase, the latest obs snapshot of the index under test, and
// latency summaries automatically.
type Recorder struct {
	mu  sync.Mutex
	art Artifact
}

// NewRecorder starts an artifact named name (e.g. "fig10", "shards")
// with optional free-form configuration (flag values, scale).
func NewRecorder(name string, config map[string]string) *Recorder {
	return &Recorder{art: Artifact{Schema: ArtifactSchema, Name: name, Config: config}}
}

func (r *Recorder) record(res Result) {
	if r == nil {
		return
	}
	r.mu.Lock()
	r.art.Results = append(r.art.Results, resultJSON(res))
	r.mu.Unlock()
}

// SetObsTotal attaches (or replaces) the cumulative obs snapshot.
func (r *Recorder) SetObsTotal(s obs.Snapshot) {
	if r == nil {
		return
	}
	r.mu.Lock()
	r.art.ObsTotal = &s
	r.mu.Unlock()
}

// SetObsShards attaches (or replaces) the per-shard snapshots.
func (r *Recorder) SetObsShards(s []obs.Snapshot) {
	if r == nil {
		return
	}
	r.mu.Lock()
	r.art.ObsShards = s
	r.mu.Unlock()
}

// SetLatency attaches the artifact's op-latency summary.
func (r *Recorder) SetLatency(s LatencySummary) {
	if r == nil {
		return
	}
	r.mu.Lock()
	r.art.Latency = &s
	r.mu.Unlock()
}

// Artifact returns a copy of the accumulated artifact.
func (r *Recorder) Artifact() Artifact {
	r.mu.Lock()
	defer r.mu.Unlock()
	a := r.art
	a.Results = append([]ResultJSON(nil), r.art.Results...)
	return a
}

// WriteFile writes the artifact as indented JSON.
func (r *Recorder) WriteFile(path string) error {
	a := r.Artifact()
	buf, err := json.MarshalIndent(a, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(buf, '\n'), 0o644)
}

// activeRec is the process-wide recorder hook; nil disables recording
// (the default, zero overhead beyond one atomic load per phase).
var activeRec atomic.Pointer[Recorder]

// SetRecorder installs (or, with nil, removes) the active recorder.
func SetRecorder(r *Recorder) {
	activeRec.Store(r)
}

func recorder() *Recorder { return activeRec.Load() }

// Observe returns the export feeds of an index under test that has the
// ixapi.Observed capability (Spash does; the baselines do not).
func Observe(ix ixapi.Index) (obs.Sources, bool) {
	if o, ok := ix.(ixapi.Observed); ok {
		return o.ExportSources(), true
	}
	return obs.Sources{}, false
}

// recordPhase files a phase result plus, for an observed index, its
// cumulative and per-shard obs snapshots with the active recorder.
func recordPhase(ix ixapi.Index, res Result) {
	rec := recorder()
	if rec == nil {
		return
	}
	rec.record(res)
	src, ok := Observe(ix)
	if !ok {
		return
	}
	snap := src.Snapshot()
	snap.Ops = res.Ops
	snap.Finalize()
	rec.SetObsTotal(snap)
	shards := src.Shards()
	for i := range shards {
		shards[i].Finalize()
	}
	rec.SetObsShards(shards)
}
