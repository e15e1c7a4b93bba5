package main

import (
	"strings"
	"testing"

	"spash"
)

// TestParseRefusesFrameFaultsAtCrashStep pins the flag validation that
// replaced a vacuous PASS: at b7572a8 `-crashstep N -bitflips K` armed
// its media plan after the cut had fired, injected nothing, printed
// "no crash fired" and exited 0. Bit flips and poison need the live
// frame list, which exists only at a quiescent cut, so the combination
// is refused before anything is built; torn write-backs need no frames
// and compose with a crash step.
func TestParseRefusesFrameFaultsAtCrashStep(t *testing.T) {
	for _, args := range [][]string{
		{"-crashstep", "4000", "-bitflips", "4", "-repair"},
		{"-crashstep", "4000", "-poison", "2"},
		{"-crashstep", "4000", "-torn", "6", "-bitflips", "1"},
	} {
		if _, _, err := parse(append([]string{"-records", "10"}, args...)); err == nil || !strings.Contains(err.Error(), "quiescent") {
			t.Errorf("%v: err = %v, want the frame-list refusal", args, err)
		}
	}
	d, _, err := parse([]string{"-records", "10", "-mode", "adr", "-crashstep", "4000", "-torn", "6"})
	if err != nil {
		t.Fatalf("-crashstep with -torn: %v", err)
	}
	if d.CrashStep != 4000 || d.PowerCycle || d.Media.TornLines != 6 || d.Opts.Platform.Mode != spash.ADR {
		t.Fatalf("drill %+v does not say what the flags said", d)
	}
	if d, _, err = parse([]string{"-records", "10", "-bitflips", "4", "-poison", "2"}); err != nil || !d.PowerCycle {
		t.Fatalf("quiescent frame faults: err %v, power cycle %v", err, d.PowerCycle)
	}
}

// TestParseRejectsBadValues: the other refusals keep their reasons,
// and each out-of-range count, size or rate is refused by name before
// anything is built: unchecked, a negative -records or -churn panics in
// ChurnScript and the others read as 0, "disabled" or a huge size.
func TestParseRejectsBadValues(t *testing.T) {
	for want, args := range map[string][]string{
		"unknown -mode":             {"-mode", "dram"},
		"unknown -repair-from":      {"-repair-from", "tape"},
		"-chaos requires":           {"-chaos", "0.3"},
		"-records -5 is negative":   {"-records", "-5", "-churn", "0"},
		"-churn -2 is negative":     {"-churn", "-2"},
		"-bitflips -1 is negative":  {"-bitflips", "-1"},
		"-torn -1 is negative":      {"-torn", "-1"},
		"-poison -3 is negative":    {"-poison", "-3"},
		"-crashstep -4 is negative": {"-crashstep", "-4"},
		"-poolmb -1 is negative":    {"-poolmb", "-1"},
		"-cachekb -1 is negative":   {"-cachekb", "-1"},
		"-chaos 4 is outside":       {"-repair-from", "replica", "-chaos", "4"},
		"-chaos -0.5 is outside":    {"-repair-from", "replica", "-chaos", "-0.5"},
		"-chaos NaN is outside":     {"-repair-from", "replica", "-chaos", "NaN"},
	} {
		if _, _, err := parse(append([]string{"-records", "10"}, args...)); err == nil || !strings.Contains(err.Error(), want) {
			t.Errorf("%v: err = %v, want %q", args, err, want)
		}
	}
	d, cfg, err := parse([]string{"-records", "10", "-repair", "-repair-from", "replica", "-chaos", "0.4", "-seed", "9"})
	if err != nil {
		t.Fatal(err)
	}
	if f := d.Peer.Faults; !cfg.chaos || d.Peer.Promote || f.Seed != 9 || f.Drop != 0.2 || f.Dup != 0.1 || f.Reorder != 0.1 {
		t.Fatalf("peer %+v, chaos %v", d.Peer, cfg.chaos)
	}
}
