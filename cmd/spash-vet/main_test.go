package main

import (
	"bytes"
	"encoding/json"
	"strings"
	"testing"

	"spash/internal/analysis"
)

// vet runs the driver in-process and returns its exit status and output.
func vet(args ...string) (code int, stdout, stderr string) {
	var out, errOut bytes.Buffer
	code = run(args, &out, &errOut)
	return code, out.String(), errOut.String()
}

// TestRunCleanTree: the module's own import-path pattern works from a
// directory below the module root (the test's working directory), and
// the tree carries no finding.
func TestRunCleanTree(t *testing.T) {
	if testing.Short() {
		t.Skip("loads and type-checks the whole module")
	}
	if code, out, errOut := vet("spash/..."); code != 0 {
		t.Fatalf("spash-vet spash/... = %d\nstdout:\n%s\nstderr:\n%s", code, out, errOut)
	}
}

// TestRunMissingPatternFails: a pattern that loads nothing is an
// operational error, not a clean run.
func TestRunMissingPatternFails(t *testing.T) {
	code, _, errOut := vet("./nosuchdir")
	if code != 2 || !strings.Contains(errOut, "nosuchdir") {
		t.Fatalf("spash-vet ./nosuchdir = %d, stderr %q; want 2 naming the pattern", code, errOut)
	}
}

// TestRunSARIF: -sarif prints one SARIF log listing every analyzer of
// the suite as a rule, and no result on the clean tree.
func TestRunSARIF(t *testing.T) {
	if testing.Short() {
		t.Skip("loads and type-checks the whole module")
	}
	code, out, errOut := vet("-sarif", "spash/...")
	if code != 0 {
		t.Fatalf("spash-vet -sarif spash/... = %d\nstderr:\n%s", code, errOut)
	}
	var log struct {
		Version string
		Runs    []struct {
			Tool struct {
				Driver struct {
					Rules []struct{ ID string }
				}
			}
			Results []json.RawMessage
		}
	}
	if err := json.Unmarshal([]byte(out), &log); err != nil {
		t.Fatalf("stdout is not JSON: %v\n%s", err, out)
	}
	if log.Version != "2.1.0" || len(log.Runs) != 1 {
		t.Fatalf("version %q with %d runs; want one 2.1.0 run", log.Version, len(log.Runs))
	}
	var ids []string
	for _, r := range log.Runs[0].Tool.Driver.Rules {
		ids = append(ids, r.ID)
	}
	var want []string
	for _, a := range analysis.Suite() {
		want = append(want, a.Name)
	}
	if strings.Join(ids, ",") != strings.Join(want, ",") {
		t.Errorf("rules %v; want the suite %v", ids, want)
	}
	if n := len(log.Runs[0].Results); n != 0 {
		t.Errorf("%d results on the clean tree; want 0", n)
	}
}

// TestRunRejectsUnknownFlags: the driver takes -summary and -sarif
// only; anything else is a usage error, returned rather than exiting.
func TestRunRejectsUnknownFlags(t *testing.T) {
	for _, flag := range []string{"-baseline", "-json", "-disable"} {
		if code, _, errOut := vet(flag, "x", "./..."); code != 2 || !strings.Contains(errOut, "not defined") {
			t.Errorf("spash-vet %s = %d, stderr %q; want 2", flag, code, errOut)
		}
	}
}
