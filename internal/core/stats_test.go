package core

import (
	"testing"

	"spash/internal/obs"
)

// Every resize path counts a doubling at the registry's one site, and
// Stats reads that count: under HTM and under both lock modes, the
// exported doubles counter and Stats().Doubles are the same number.
func TestDoublesCountedOnceInEveryMode(t *testing.T) {
	for _, mode := range []ConcurrencyMode{ModeHTM, ModeWriteLock, ModeRWLock} {
		t.Run(mode.String(), func(t *testing.T) {
			ix, h := newTestIndex(t, Config{Concurrency: mode, LockStripeBits: 2})
			for i := uint64(0); i < 20000; i++ {
				if err := h.Insert(k64(i), k64(i)); err != nil {
					t.Fatal(err)
				}
			}
			exported := ix.ObsSnapshot().Counters[obs.CounterNames[obs.CDoubles]]
			if st := ix.Stats(); exported != st.Doubles || st.Doubles == 0 {
				t.Fatalf("doubles counter %d, Stats().Doubles %d: want one non-zero count", exported, st.Doubles)
			}
		})
	}
}

// flushDecisions are the counters Table I's update decisions and
// §III-C's insert decisions move.
var flushDecisions = []obs.Counter{
	obs.CUpdateFlushes, obs.CFlushSkipHot, obs.CFlushSkipSmall, obs.CChunkFlushes, obs.CRecordFlushes,
}

// TestFlushDecisions walks the flush decision matrix: each case sets up
// a fresh index, then makes one decision (updateFlushPolicy after an
// update, allocRecord for an insert's record) and checks which of the
// flushDecisions counters moved. Exactly the wanted one moves, or none.
func TestFlushDecisions(t *testing.T) {
	const none = obs.Counter(-1)
	key := []byte("a-flush-decision-key")
	// update returns the decision for an update of key to a size-byte
	// out-of-line value; hot makes the detector see key as hot first.
	update := func(size int, hot bool) func(h *Handle) func() {
		return func(h *Handle) func() {
			addr, err := h.allocRecord(make([]byte, size))
			if err != nil {
				t.Fatal(err)
			}
			r := makeReq(key)
			if hot {
				h.ix.hot.touch(r.h)
			}
			return func() { h.updateFlushPolicy(&r, addr, size) }
		}
	}
	insert := func(size int) func(h *Handle) func() {
		return func(h *Handle) func() {
			return func() {
				// Allocate until a decision is made: a compacted chunk
				// is flushed once, when a record fills it.
				for i := 0; i < 64; i++ {
					if _, err := h.allocRecord(make([]byte, size)); err != nil {
						t.Fatal(err)
					}
					for _, c := range flushDecisions {
						if h.ix.reg.Counter(c) != 0 {
							return
						}
					}
				}
			}
		}
	}
	cases := []struct {
		name  string
		cfg   Config
		setup func(h *Handle) func()
		want  obs.Counter
	}{
		{"adaptive/hot", Config{}, update(256, true), obs.CFlushSkipHot},
		{"adaptive/cold-64B", Config{}, update(64, false), obs.CFlushSkipSmall},
		{"adaptive/cold-65B", Config{}, update(65, false), obs.CUpdateFlushes},
		{"oracle/hot", Config{Update: UpdateOracle, OracleHot: func(uint64) bool { return true }},
			update(256, false), obs.CFlushSkipHot},
		{"always-flush/hot-small", Config{Update: UpdateAlwaysFlush}, update(16, true), obs.CUpdateFlushes},
		{"never-flush/cold-large", Config{Update: UpdateNeverFlush}, update(256, false), none},
		{"compacted-flush/chunk-fills", Config{}, insert(16), obs.CChunkFlushes},
		{"no-compaction/small", Config{Insert: InsertNoCompact}, insert(16), obs.CRecordFlushes},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			ix, h := newTestIndex(t, tc.cfg)
			decide := tc.setup(h)
			before := make([]int64, len(flushDecisions))
			for i, c := range flushDecisions {
				before[i] = ix.reg.Counter(c)
			}
			decide()
			for i, c := range flushDecisions {
				moved := ix.reg.Counter(c) - before[i]
				if (c == tc.want) != (moved > 0) {
					t.Errorf("%s moved by %d", obs.CounterNames[c], moved)
				}
			}
		})
	}
}
