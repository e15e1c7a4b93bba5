package harness

import (
	"testing"

	"spash/internal/core"
	"spash/internal/indextest"
)

// TestConformance is the one conformance run: every index of the
// constructor table, plus the Spash variants whose code paths the
// table's rows do not reach — the two lock-based concurrency modes
// (on 16 stripes, so segments share locks) and a 4-shard DB. Subtests
// are named <entry>/<case>, so a Dash failure reads as
// TestConformance/Dash/Growth.
func TestConformance(t *testing.T) {
	entries := append(MacroRoster(),
		SpashEntry("Spash(w/ write lock)", 1, core.Config{Concurrency: core.ModeWriteLock, LockStripeBits: 4}),
		SpashEntry("Spash(w/ write & read lock)", 1, core.Config{Concurrency: core.ModeRWLock, LockStripeBits: 4}),
		SpashEntry("Spash-4sh", 4, core.Config{}))
	for _, e := range entries {
		if e.Name == "Spash-noPipe" {
			continue // the suite issues no batches: the same run as Spash
		}
		t.Run(e.Name, func(t *testing.T) { indextest.Run(t, e.Open, e.ApproxLen) })
	}
}
