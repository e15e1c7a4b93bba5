package crashtest

import (
	"testing"

	"spash/internal/pmem"
)

// TestScriptCompletes checks the workload runs clean end to end (no
// injected crash) and satisfies the oracle and invariants on every arm.
func TestScriptCompletes(t *testing.T) {
	for _, arm := range Arms() {
		tr, err := Run(arm)
		if err != nil {
			t.Fatalf("%s: %v", arm.Name, err)
		}
		if tr.Fired {
			t.Fatalf("%s: count-only plan fired", arm.Name)
		}
		if e := tr.Err(); e != nil {
			t.Fatalf("%s: clean run violates oracle: %v", arm.Name, e)
		}
		// The sweep sizes EXPERIMENTS.md's crash matrix reports. A step is
		// a persistence primitive, so these move only when an operation's
		// store/flush/fence sequence does — never for a host-side hint.
		want := map[string]int64{"eadr-compacted-adaptive": 554, "eadr-nocompact-always": 591,
			"eadr-compactnoflush-never": 531, "adr-compacted-adaptive": 554}
		if tr.Steps != want[arm.Name] {
			t.Fatalf("%s: %d steps, EXPERIMENTS.md's crash matrix says %d", arm.Name, tr.Steps, want[arm.Name])
		}
		t.Logf("%s: %d steps", arm.Name, tr.Steps)
	}
}

// TestExhaustiveEADR is the acceptance sweep: under eADR, a power cut
// at every persistence-primitive step of the scripted workload —
// covering insert, adaptive update, delete, compacted-flush insertion,
// segment split, and staged directory doubling — must recover with
// clean invariants and the durability oracle intact, across the flush
// policies.
func TestExhaustiveEADR(t *testing.T) {
	if testing.Short() {
		t.Skip("exhaustive sweep skipped in -short")
	}
	for _, arm := range Arms() {
		if arm.Opts.Platform.Mode != pmem.EADR {
			continue
		}
		res := sweepSteps(t, arm, 1)
		t.Logf("%s: %d trials over %d steps, %d failures", arm.Name, res.Trials, res.TotalSteps, len(res.Failures))
		for i, tr := range res.Failures {
			if i >= 5 {
				t.Errorf("%s: … and %d more failures", arm.Name, len(res.Failures)-i)
				break
			}
			t.Errorf("%s: %v", arm.Name, tr.Err())
		}
	}
}

// TestADRGap asserts the unflushed-loss gap the paper predicts: under
// ADR the same sweep must hit crash steps where acknowledged
// operations are lost (or the damaged image fails recovery) — and must
// do so without ever panicking.
func TestADRGap(t *testing.T) {
	if testing.Short() {
		t.Skip("ADR sweep skipped in -short")
	}
	arm := ByName(Arms(), "adr-compacted-adaptive")
	res := sweepSteps(t, arm, 1)
	t.Logf("%s: %d trials over %d steps, %d lossy crash points", arm.Name, res.Trials, res.TotalSteps, len(res.Failures))
	if len(res.Failures) == 0 {
		t.Fatalf("%s: ADR sweep shows no durability gap; either the cache rollback or the oracle is broken", arm.Name)
	}
}

// TestSmoke is the short-budget CI job: a strided sweep of the default
// eADR arm, cheap enough for every push.
func TestSmoke(t *testing.T) {
	res := sweepSteps(t, Arms()[0], 37)
	for _, tr := range res.Failures {
		t.Errorf("%v", tr.Err())
	}
	t.Logf("smoke: %d trials over %d steps", res.Trials, res.TotalSteps)
}
