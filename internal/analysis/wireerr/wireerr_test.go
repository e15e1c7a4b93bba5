package wireerr_test

import (
	"testing"

	"spash/internal/analysis/atest"
	"spash/internal/analysis/wireerr"
)

// The fixture splits the contract the way the real tree does: the
// transport seam (and so the WireSentinels fact) lives in
// wireerr/transport, the code table lives in wireerr/wire. The
// no-encoding diagnostic only exists if the package fact crossed the
// boundary.
func TestWireerrFixture(t *testing.T) {
	pkgs := atest.Fixtures(t, []string{"wireerr/transport", "wireerr/wire"},
		"spash", "errors", "fmt")
	atest.CheckPkgs(t, pkgs, wireerr.Analyzer)
}

func TestWireerrSuppressionRecorded(t *testing.T) {
	pkgs := atest.Fixtures(t, []string{"wireerr/transport", "wireerr/wire"},
		"spash", "errors", "fmt")
	supp := atest.SuppressionsPkgs(t, pkgs, wireerr.Analyzer)
	atest.MustContainSuppression(t, supp, "wireerr", "legacy alias")
}
