package crashtest

import (
	"errors"
	"testing"

	"spash"
)

// TestFillToExhaustion sweeps the fill rows at a stride: FillScript fills
// a 2 MB pool until inserts are refused with ErrNoSpace, then updates,
// deletes and re-inserts on it. A refusal is typed and not acknowledged.
// Under eADR every trial is held to the exact oracle: every acknowledged
// write survives the cut, every refused one left nothing behind. Under
// ADR fsck must recover and repair every trial — a damaged segment on a
// full pool is rebuilt in place, there being no frame to rebuild into —
// with no segment given up on, no broken invariant, no misplaced record
// and no unreadable or torn key, and rolled-back writes are excused.
//
// The one violation ADR still shows is a key reading a value it was never
// given (ROADMAP item 6(a)(iii)): a record freed by a write whose slot
// change had not been written back yet is reused at once on a full pool,
// and the cut brings the old slot back pointing at the new record, or a
// new slot pointing at a record whose bytes rolled back. It is pinned,
// not excused: the trials showing it may not outnumber those measured
// when it was found, nor any of them hold more wrong keys than the worst
// of those did.
func TestFillToExhaustion(t *testing.T) {
	const maxWrongKeys = 10 // the worst trial measured, at either stride
	stride, maxWrongTrials := int64(499), 13
	if testing.Short() {
		stride, maxWrongTrials = 4999, 2
	}
	for _, d := range FillArms() {
		res := sweepSteps(t, d, stride)
		if res.Refused == 0 {
			t.Fatalf("%s: no write was refused: the script never filled the pool", d.Name)
		}
		wrong := 0
		for _, o := range res.Failures {
			if !d.adr() {
				t.Errorf("%v", o.Err())
				continue
			}
			switch {
			case o.RecoverErr != nil:
				t.Errorf("%s step %d: recovery failed: %v", d.Name, o.Drill.CrashStep, o.RecoverErr)
			case o.Unrecoverable > 0 || o.InvariantErr != nil || o.Misplaced > 0 ||
				o.Unreadable > 0 || o.Untyped > 0 || o.Torn || o.StillLost > 0 || o.Wrong == 0:
				t.Errorf("%v", o.Err())
			case o.Wrong > maxWrongKeys:
				t.Errorf("%s step %d: %d keys hold a value never given, more than the %d of ROADMAP item 6(a)(iii)'s worst trial: %v",
					d.Name, o.Drill.CrashStep, o.Wrong, maxWrongKeys, o.Err())
			default:
				wrong++
			}
		}
		if wrong > maxWrongTrials {
			t.Errorf("%s stride %d: %d trials with a value never given, more than the %d of ROADMAP item 6(a)(iii)",
				d.Name, stride, wrong, maxWrongTrials)
		}
		t.Logf("fill %s stride %d: %d trials over %d steps, %d writes refused, %d failures (%d with a value never given)",
			d.Name, stride, res.Trials, res.TotalSteps, res.Refused, len(res.Failures), wrong)
	}
}

// TestOnlyFillDrillsMayRunOutOfSpace runs the fill script in a drill not
// marked Fill: the first refusal is then a workload failure, as in every
// drill whose script was never meant to exhaust the pool.
func TestOnlyFillDrillsMayRunOutOfSpace(t *testing.T) {
	d := FillArms()[0]
	d.Fill = false
	out, err := Run(d)
	if !errors.Is(err, spash.ErrNoSpace) {
		t.Fatalf("a drill not marked Fill ran out of space: error %v, want ErrNoSpace", err)
	}
	if out.Refused != 0 {
		t.Fatalf("%d refusals counted as unacknowledged in a drill not marked Fill", out.Refused)
	}
}
