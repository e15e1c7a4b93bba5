package harness

import (
	"bytes"
	"flag"
	"os"
	"testing"
)

var updateGolden = flag.Bool("update", false, "rewrite testdata/figures.golden from this build's output")

// Fig 8 and Fig 9 (one worker) and the 1-thread column of Fig 12(d) are
// pure functions of the code: every PM access count, load factor and
// virtual nanosecond in them is deterministic. The golden pins them
// byte for byte, so a change to the harness, the constructor table or
// the Spash adapter that moves any simulated count fails here. A PR
// that means to move one regenerates the file with -update and says
// why in CHANGES.md.
func TestFiguresGolden(t *testing.T) {
	oneThread := tinyScale
	oneThread.Threads = []int{1}
	var got bytes.Buffer
	for _, fig := range []func() error{
		func() error { return Fig8(&got, tinyScale) },
		func() error { return Fig9(&got, tinyScale) },
		func() error { return Fig12d(&got, oneThread) },
	} {
		if err := fig(); err != nil {
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
