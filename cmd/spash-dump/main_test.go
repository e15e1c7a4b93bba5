package main

import (
	"bytes"
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
