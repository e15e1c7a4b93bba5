package obs

import "fmt"

// Health model: a Snapshot reduced against fixed thresholds to one of
// OK / DEGRADED / CRITICAL, with human-readable reasons. The inputs are
// the signals an operator acts on: quarantined segments, replication
// lag, HTM abort rate, fsck damage.

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

// The thresholds the health model evaluates against. A non-closed
// replication breaker is DEGRADED whatever the spill depth; the
// critical spill level is not a threshold but the primary's own log
// bound (repl_spill_limit), where acknowledged writes' frames start
// being shed and a full re-seed becomes inevitable.
const (
	// quarantineDegraded / quarantineCritical: quarantined-segment
	// counts at which the verdict degrades.
	quarantineDegraded = 1
	quarantineCritical = 16
	// replLagDegraded / replLagCritical: replica lag in records behind
	// the primary.
	replLagDegraded = 1
	replLagCritical = 4096
	// abortRateDegraded / abortRateCritical: HTM aborts per commit.
	abortRateDegraded = 1.0
	abortRateCritical = 8.0
	// unrecoverableCritical: fsck-unrecoverable segment count that is
	// immediately critical.
	unrecoverableCritical = 1
	// spillDegraded: frames a replication primary still owes its peer.
	spillDegraded = 1
)

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
	// BreakerState is the shipping circuit breaker's state on a
	// replication primary (0 closed, 1 half-open, 2 open) and
	// SpillDepth the frames its log still owes the peer.
	BreakerState int64 `json:"repl_breaker_state"`
	SpillDepth   int64 `json:"repl_spill_depth"`
}

// EvalHealth reduces a (cumulative or diffed) Snapshot to a Health
// verdict under the thresholds above.
func EvalHealth(s Snapshot) Health {
	h := Health{
		Quarantines:       s.Counters[CounterNames[CQuarantines]],
		ReplLagRecords:    s.Gauges[GaugeNames[GReplLagRecords]],
		ReplLagBytes:      s.Gauges[GaugeNames[GReplLagBytes]],
		FsckUnrecoverable: s.Gauges[GaugeNames[GFsckUnrecoverable]],
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

	if h.FsckUnrecoverable >= unrecoverableCritical {
		raise(HealthCritical, "%d unrecoverable segment(s) reported by fsck", h.FsckUnrecoverable)
	}
	if h.Quarantines >= quarantineCritical {
		raise(HealthCritical, "%d segment(s) quarantined (critical >= %d)", h.Quarantines, quarantineCritical)
	} else if h.Quarantines >= quarantineDegraded {
		raise(HealthDegraded, "%d segment(s) quarantined", h.Quarantines)
	}
	if h.ReplLagRecords >= replLagCritical {
		raise(HealthCritical, "replica %d record(s) behind (critical >= %d)", h.ReplLagRecords, replLagCritical)
	} else if h.ReplLagRecords >= replLagDegraded {
		raise(HealthDegraded, "replica %d record(s) / %d byte(s) behind", h.ReplLagRecords, h.ReplLagBytes)
	}
	if h.AbortRate >= abortRateCritical {
		raise(HealthCritical, "HTM abort rate %.2f/commit (critical >= %.2f)", h.AbortRate, abortRateCritical)
	} else if h.AbortRate >= abortRateDegraded {
		raise(HealthDegraded, "HTM abort rate %.2f/commit", h.AbortRate)
	}
	switch h.BreakerState {
	case 1:
		raise(HealthDegraded, "replication breaker half-open (probing the transport)")
	case 2:
		raise(HealthDegraded, "replication breaker open (degraded-async shipping)")
	}
	if h.SpillDepth >= spillDegraded {
		if limit := s.Gauges[GaugeNames[GReplSpillLimit]]; limit > 0 && h.SpillDepth >= limit {
			raise(HealthCritical, "%d frame(s) owed to the replica fill the primary's log (bound %d): writes shed, re-seed inevitable", h.SpillDepth, limit)
		} else {
			raise(HealthDegraded, "%d frame(s) owed to the replica", h.SpillDepth)
		}
	}

	h.Status = worst
	return h
}
