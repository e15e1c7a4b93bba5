package obs

import "fmt"

// Health model: a Snapshot reduced against configurable watermarks to
// one of OK / DEGRADED / CRITICAL, with human-readable reasons. The
// inputs are the signals an operator acts on: quarantined segments,
// replication lag, HTM abort rate, fsck damage, scrub coverage.

// HealthStatus is the overall verdict.
type HealthStatus int

const (
	HealthOK HealthStatus = iota
	HealthDegraded
	HealthCritical
)

func (s HealthStatus) String() string {
	switch s {
	case HealthOK:
		return "OK"
	case HealthDegraded:
		return "DEGRADED"
	case HealthCritical:
		return "CRITICAL"
	}
	return "UNKNOWN"
}

// MarshalJSON renders the status by name.
func (s HealthStatus) MarshalJSON() ([]byte, error) {
	return []byte(`"` + s.String() + `"`), nil
}

// UnmarshalJSON parses the status by name (consumers of the health
// endpoint, e.g. spash-top's attach mode, decode the verdict back).
func (s *HealthStatus) UnmarshalJSON(b []byte) error {
	switch string(b) {
	case `"OK"`:
		*s = HealthOK
	case `"DEGRADED"`:
		*s = HealthDegraded
	case `"CRITICAL"`:
		*s = HealthCritical
	default:
		return fmt.Errorf("unknown health status %s", b)
	}
	return nil
}

// HealthWatermarks are the thresholds the health model evaluates
// against. Zero values select conservative defaults (see
// withDefaults); set a threshold negative to disable that check.
type HealthWatermarks struct {
	// QuarantineDegraded / QuarantineCritical: quarantined-segment
	// counts at which the verdict degrades. Default 1 / 16.
	QuarantineDegraded int64 `json:"quarantine_degraded"`
	QuarantineCritical int64 `json:"quarantine_critical"`
	// ReplLagDegraded / ReplLagCritical: replica lag in records behind
	// the primary. Default 1 / 4096.
	ReplLagDegraded int64 `json:"repl_lag_degraded"`
	ReplLagCritical int64 `json:"repl_lag_critical"`
	// AbortRateDegraded / AbortRateCritical: HTM aborts per commit.
	// Default 1.0 / 8.0.
	AbortRateDegraded float64 `json:"abort_rate_degraded"`
	AbortRateCritical float64 `json:"abort_rate_critical"`
	// UnrecoverableCritical: fsck-unrecoverable segment count that is
	// immediately critical. Default 1.
	UnrecoverableCritical int64 `json:"unrecoverable_critical"`
	// MinScrubPasses: a running scrubber that has not yet completed
	// this many passes marks the index DEGRADED (coverage unknown).
	// Default 0 (disabled): an index without a scrubber is healthy.
	MinScrubPasses int64 `json:"min_scrub_passes"`
	// SpillDegraded: frames a replication primary still owes its peer
	// (shipping circuit breaker tripped). Default 1. A non-closed
	// breaker is itself DEGRADED regardless of this threshold (set it
	// negative to disable the spill-depth checks only). The critical
	// level is not a watermark: it is the primary's own log bound
	// (repl_spill_limit), where acknowledged writes' frames start
	// being shed and a full re-seed becomes inevitable.
	SpillDegraded int64 `json:"spill_degraded"`
}

// withDefaults fills zero thresholds with the defaults above.
func (w HealthWatermarks) withDefaults() HealthWatermarks {
	if w.QuarantineDegraded == 0 {
		w.QuarantineDegraded = 1
	}
	if w.QuarantineCritical == 0 {
		w.QuarantineCritical = 16
	}
	if w.ReplLagDegraded == 0 {
		w.ReplLagDegraded = 1
	}
	if w.ReplLagCritical == 0 {
		w.ReplLagCritical = 4096
	}
	if w.AbortRateDegraded == 0 {
		w.AbortRateDegraded = 1.0
	}
	if w.AbortRateCritical == 0 {
		w.AbortRateCritical = 8.0
	}
	if w.UnrecoverableCritical == 0 {
		w.UnrecoverableCritical = 1
	}
	if w.SpillDegraded == 0 {
		w.SpillDegraded = 1
	}
	return w
}

// Health is the evaluated verdict plus the signals it was derived
// from, so a consumer (exporter, spash-top) can show both.
type Health struct {
	Status  HealthStatus `json:"status"`
	Reasons []string     `json:"reasons,omitempty"`

	Quarantines       int64   `json:"quarantines"`
	FsckUnrecoverable int64   `json:"fsck_unrecoverable"`
	ReplLagRecords    int64   `json:"repl_lag_records"`
	ReplLagBytes      int64   `json:"repl_lag_bytes"`
	AbortRate         float64 `json:"abort_rate"`
	ScrubPasses       int64   `json:"scrub_passes"`
	// BreakerState is the shipping circuit breaker's state on a
	// replication primary (0 closed, 1 half-open, 2 open) and
	// SpillDepth the frames its log still owes the peer.
	BreakerState int64 `json:"repl_breaker_state"`
	SpillDepth   int64 `json:"repl_spill_depth"`
}

// EvalHealth reduces a (cumulative or diffed) Snapshot to a Health
// verdict under the given watermarks.
func EvalHealth(s Snapshot, w HealthWatermarks) Health {
	w = w.withDefaults()
	h := Health{
		Quarantines:       s.Counters[CounterNames[CQuarantines]],
		ReplLagRecords:    s.Gauges[GaugeNames[GReplLagRecords]],
		ReplLagBytes:      s.Gauges[GaugeNames[GReplLagBytes]],
		FsckUnrecoverable: s.Gauges[GaugeNames[GFsckUnrecoverable]],
		ScrubPasses:       s.Gauges[GaugeNames[GScrubPasses]],
		BreakerState:      s.Gauges[GaugeNames[GReplBreakerState]],
		SpillDepth:        s.Gauges[GaugeNames[GReplSpillDepth]],
	}
	if s.HTM.Commits > 0 {
		h.AbortRate = float64(s.HTM.Conflicts+s.HTM.Capacities+s.HTM.Explicits) /
			float64(s.HTM.Commits)
	}

	worst := HealthOK
	raise := func(to HealthStatus, format string, args ...any) {
		if to > worst {
			worst = to
		}
		h.Reasons = append(h.Reasons, fmt.Sprintf(format, args...))
	}

	if h.FsckUnrecoverable > 0 && w.UnrecoverableCritical > 0 && h.FsckUnrecoverable >= w.UnrecoverableCritical {
		raise(HealthCritical, "%d unrecoverable segment(s) reported by fsck", h.FsckUnrecoverable)
	}
	if w.QuarantineCritical > 0 && h.Quarantines >= w.QuarantineCritical {
		raise(HealthCritical, "%d segment(s) quarantined (critical >= %d)", h.Quarantines, w.QuarantineCritical)
	} else if w.QuarantineDegraded > 0 && h.Quarantines >= w.QuarantineDegraded {
		raise(HealthDegraded, "%d segment(s) quarantined", h.Quarantines)
	}
	if w.ReplLagCritical > 0 && h.ReplLagRecords >= w.ReplLagCritical {
		raise(HealthCritical, "replica %d record(s) behind (critical >= %d)", h.ReplLagRecords, w.ReplLagCritical)
	} else if w.ReplLagDegraded > 0 && h.ReplLagRecords >= w.ReplLagDegraded {
		raise(HealthDegraded, "replica %d record(s) / %d byte(s) behind", h.ReplLagRecords, h.ReplLagBytes)
	}
	if w.AbortRateCritical > 0 && h.AbortRate >= w.AbortRateCritical {
		raise(HealthCritical, "HTM abort rate %.2f/commit (critical >= %.2f)", h.AbortRate, w.AbortRateCritical)
	} else if w.AbortRateDegraded > 0 && h.AbortRate >= w.AbortRateDegraded {
		raise(HealthDegraded, "HTM abort rate %.2f/commit", h.AbortRate)
	}
	if w.MinScrubPasses > 0 && h.ScrubPasses < w.MinScrubPasses {
		raise(HealthDegraded, "scrub coverage %d pass(es), want >= %d", h.ScrubPasses, w.MinScrubPasses)
	}
	switch h.BreakerState {
	case 1:
		raise(HealthDegraded, "replication breaker half-open (probing the transport)")
	case 2:
		raise(HealthDegraded, "replication breaker open (degraded-async shipping)")
	}
	if w.SpillDegraded > 0 && h.SpillDepth >= w.SpillDegraded {
		if limit := s.Gauges[GaugeNames[GReplSpillLimit]]; limit > 0 && h.SpillDepth >= limit {
			raise(HealthCritical, "%d frame(s) owed to the replica fill the primary's log (bound %d): writes shed, re-seed inevitable", h.SpillDepth, limit)
		} else {
			raise(HealthDegraded, "%d frame(s) owed to the replica", h.SpillDepth)
		}
	}

	h.Status = worst
	return h
}

// MergeHealth combines per-shard verdicts into one: the worst status
// wins and reasons are concatenated with shard prefixes; signal fields
// are summed (abort rate record-weighted is overkill — max is shown).
func MergeHealth(shards []Health) Health {
	var out Health
	for i, h := range shards {
		if h.Status > out.Status {
			out.Status = h.Status
		}
		for _, r := range h.Reasons {
			out.Reasons = append(out.Reasons, fmt.Sprintf("shard %d: %s", i, r))
		}
		out.Quarantines += h.Quarantines
		out.FsckUnrecoverable += h.FsckUnrecoverable
		out.ReplLagRecords += h.ReplLagRecords
		out.ReplLagBytes += h.ReplLagBytes
		out.ScrubPasses += h.ScrubPasses
		out.SpillDepth += h.SpillDepth
		if h.BreakerState > out.BreakerState {
			out.BreakerState = h.BreakerState
		}
		if h.AbortRate > out.AbortRate {
			out.AbortRate = h.AbortRate
		}
	}
	return out
}
