package main

import (
	"bytes"
	"errors"
	"os"
	"strings"
	"testing"
)

// TestReportGolden runs the tool end to end and compares its report
// with text captured before core.Dump and the renderer last changed.
// The report is a pure function of the flags: two runs are
// byte-identical.
func TestReportGolden(t *testing.T) {
	for golden, args := range map[string]string{
		"shards2":             "-records 20000 -shards 2",
		"valuesize64-deletes": "-records 20000 -valuesize 64 -deletes 0.5",
	} {
		t.Run(golden, func(t *testing.T) {
			var got bytes.Buffer
			if err := run(strings.Fields(args), &got); err != nil {
				t.Fatal(err)
			}
			want, err := os.ReadFile("testdata/" + golden + ".golden")
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(got.Bytes(), want) {
				t.Fatalf("spash-dump %s:\n%s\nwant:\n%s", args, got.Bytes(), want)
			}
		})
	}
}

// TestRunRefusesOutOfRangeFlags: a fraction above 1 used to report
// more deletes than records, a negative one never ended (the product
// converted to a huge delete count) and a negative value size panicked
// in make. Each is a usageError (main exits 2) and builds nothing.
func TestRunRefusesOutOfRangeFlags(t *testing.T) {
	for _, args := range []string{
		"-records 1000 -deletes 3",
		"-records 1000 -deletes -0.1",
		"-records 1000 -deletes NaN",
		"-records 1000 -valuesize -1",
		"-records -1",
	} {
		var out bytes.Buffer
		err := run(strings.Fields(args), &out)
		var ue usageError
		if !errors.As(err, &ue) || out.Len() != 0 {
			t.Fatalf("spash-dump %s: err %v, report %q; want a usageError and no report", args, err, out.String())
		}
	}
}
