package framework

import (
	"strings"
	"testing"
)

// TestLoadRefusesPatternsThatLoadNothing: a missing directory, a
// wildcard over one, an unknown import path and a wildcard that matches
// nothing each fail the load. Before, go list -e's per-entry errors
// were dropped, so each of these analysed nothing and passed as clean.
func TestLoadRefusesPatternsThatLoadNothing(t *testing.T) {
	for pattern, want := range map[string]string{
		"./nosuchdir":               "directory not found",
		"./nonexistent/...":         "no such file or directory",
		"spash/internal/nosuch":     "is not in std",
		"spash/internal/nosuch/...": "matched no packages",
	} {
		pkgs, err := (&Loader{}).Load(pattern)
		if err == nil {
			t.Errorf("Load(%q) = %d package(s), nil error; want a refusal", pattern, len(pkgs))
			continue
		}
		if !strings.Contains(err.Error(), want) {
			t.Errorf("Load(%q): %v; want it to mention %q", pattern, err, want)
		}
	}
}

// TestLoadTargetsOnlyMatchedPackages: a good pattern loads its package
// for diagnostics and the module-local packages it imports for facts.
func TestLoadTargetsOnlyMatchedPackages(t *testing.T) {
	pkgs, err := (&Loader{}).Load("spash/internal/analysis")
	if err != nil {
		t.Fatal(err)
	}
	var targets []string
	deps := 0
	for _, p := range pkgs {
		if p.FactsOnly {
			deps++
		} else {
			targets = append(targets, p.ImportPath)
		}
	}
	if len(targets) != 1 || targets[0] != "spash/internal/analysis" || deps == 0 {
		t.Fatalf("targets %v, %d facts-only deps; want [spash/internal/analysis] and its analyzers", targets, deps)
	}
}
