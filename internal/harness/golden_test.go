package harness

import (
	"bytes"
	"flag"
	"os"
	"slices"
	"testing"
)

var updateGolden = flag.Bool("update", false, "rewrite testdata/figures.golden from this build's output")

// tiny is the tiny-scale sheet TestClaims starts (claims_test.go sorts
// first, and -count=N starts one per run) and TestFiguresGolden renders
// from, so a full run measures each shared cell once.
var tiny *Sheet

// Fig 8 and Fig 9 (one worker) and the 1-thread column of Fig 12(d) are
// pure functions of the code: every PM access count, load factor and
// virtual nanosecond in them is deterministic. The golden pins them
// byte for byte, so a change to the harness, the constructor table or
// the Spash adapter that moves any simulated count fails here. A PR
// that means to move one regenerates the file with -update, says why
// in CHANGES.md and keeps TestClaims green (DESIGN.md §5).
func TestFiguresGolden(t *testing.T) {
	if tiny == nil {
		tiny = NewSheet(tinyScale, nil)
	}
	var got bytes.Buffer
	for _, name := range []string{"8", "9", "12d"} {
		ps := figure(name).panels(tiny)
		if name == "12d" {
			ps[0].head = ps[0].head[:2] // its 1-thread column
		}
		if err := tiny.write(&got, ps); err != nil {
			t.Fatal(err)
		}
	}
	const path = "testdata/figures.golden"
	if *updateGolden {
		if err := os.WriteFile(path, got.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got.Bytes(), want) {
		t.Fatalf("figure output differs from %s\n--- got\n%s\n--- want\n%s", path, got.Bytes(), want)
	}
}

// figure is the table entry named name.
func figure(name string) Figure {
	return figureTable[slices.IndexFunc(figureTable, func(f Figure) bool { return f.Name == name })]
}
