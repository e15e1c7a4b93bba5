// Command spash-bench regenerates the paper's evaluation: every figure
// and table of §VI, measured on the simulated PM platform in virtual
// time.
//
// Usage:
//
//	spash-bench [-fig all|NAME[,NAME...]] [-scale small|medium|large] [-shards N[,N...]]
//	            [-json DIR]
//
// The figure names are the rows of harness.Figures (-h lists them).
// Output is a sequence of labelled tables (one per figure panel); see
// EXPERIMENTS.md for the mapping to the paper's figures and the
// expected shapes. With -json each figure additionally writes a
// machine-readable BENCH_<fig>.json artifact (results + obs snapshot)
// into DIR.
package main

import (
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"time"

	"spash"
	"spash/internal/harness"
)

func main() {
	var figNames []string
	for _, f := range harness.Figures() {
		figNames = append(figNames, f.Name)
	}
	figFlag := flag.String("fig", "all", "comma-separated figures to regenerate: all, "+strings.Join(figNames, ", "))
	scaleFlag := flag.String("scale", "medium", "workload scale (small, medium, large)")
	jsonDir := flag.String("json", "", "write one BENCH_<fig>.json artifact per figure into this directory")
	shardsFlag := flag.String("shards", "", "comma-separated shard counts for the shards figure (default 1,2,4,8)")
	flag.Parse()

	scale, err := harness.ScaleByName(*scaleFlag)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(2)
	}
	var counts []int
	if *shardsFlag != "" {
		for _, f := range strings.Split(*shardsFlag, ",") {
			n, err := strconv.Atoi(strings.TrimSpace(f))
			if err != nil || n < 1 {
				fmt.Fprintf(os.Stderr, "bad -shards value %q\n", f)
				os.Exit(2)
			}
			counts = append(counts, n)
		}
	}
	if *jsonDir != "" {
		if err := os.MkdirAll(*jsonDir, 0o755); err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
	}

	wanted := strings.Split(*figFlag, ",")
	match := func(name string) bool {
		for _, w := range wanted {
			if w == "all" || w == name {
				return true
			}
		}
		return false
	}

	fmt.Printf("spash-bench: scale=%s (micro %d keys / %d ops, ycsb %d keys / %d ops, %d workers)\n",
		*scaleFlag, scale.MicroLoad, scale.MicroOps, scale.YCSBLoad, scale.YCSBOps, scale.MaxThreads)
	ran := 0
	for _, f := range harness.Figures() {
		if !match(f.Name) {
			continue
		}
		ran++
		fmt.Printf("\n==> %s\n", f.Desc)
		start := time.Now()
		artName := f.Name
		if artName[0] >= '0' && artName[0] <= '9' {
			artName = "fig" + artName
		}
		rec := harness.NewRecorder(artName, map[string]string{"scale": *scaleFlag})
		harness.SetRecorder(rec)
		// A fresh sheet per figure: each artifact records its own phases.
		err := harness.NewSheet(scale, counts).Render(os.Stdout, f)
		harness.SetRecorder(nil)
		if err != nil {
			fmt.Fprintf(os.Stderr, "figure %s: %s\n", f.Name, spash.DescribeError(err))
			os.Exit(1)
		}
		if *jsonDir != "" {
			path := filepath.Join(*jsonDir, "BENCH_"+artName+".json")
			if err := rec.WriteFile(path); err != nil {
				fmt.Fprintf(os.Stderr, "writing %s: %v\n", path, err)
				os.Exit(1)
			}
			fmt.Printf("artifact: %s\n", path)
		}
		fmt.Printf("\n(%s regenerated in %.1fs wall time)\n", f.Desc, time.Since(start).Seconds())
	}
	if ran == 0 {
		fmt.Fprintf(os.Stderr, "no figure matches %q\n", *figFlag)
		os.Exit(2)
	}
}
