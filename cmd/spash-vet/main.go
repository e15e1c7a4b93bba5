// Command spash-vet runs the spash invariant analyzers over the tree:
//
//	go run ./cmd/spash-vet ./...            # whole module
//	go run ./cmd/spash-vet -summary ./...   # + suppressions & annotations
//	go run ./cmd/spash-vet -sarif ./...     # SARIF 2.1.0 (code scanning)
//
// One run loads every matched package, plus the module-local packages
// they import, and runs the suite over them in dependency order, so the
// cross-package analyzers (respalias, golifetime, epochgate, wireerr)
// see their dependencies' facts however narrow the pattern. A pattern
// that matches no package is an error, not a clean run.
//
// Exit status: 0 clean, 1 diagnostics reported, 2 operational error.
package main

import (
	"flag"
	"fmt"
	"io"
	"os"

	"spash/internal/analysis"
	"spash/internal/analysis/framework"
)

const version = "spash-vet version 2 (spash invariant suite)"

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("spash-vet", flag.ContinueOnError)
	fs.SetOutput(stderr)
	summary := fs.Bool("summary", false, "print //spash:allow suppressions and //spash:guarded annotations after the findings")
	asSARIF := fs.Bool("sarif", false, "emit findings as SARIF 2.1.0 (for code scanning upload)")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	patterns := fs.Args()
	if len(patterns) == 0 {
		patterns = []string{"./..."}
	}

	suite := analysis.Suite()
	pkgs, err := (&framework.Loader{}).Load(patterns...)
	if err != nil {
		fmt.Fprintf(stderr, "spash-vet: %v\n", err)
		return 2
	}
	diags, supp, err := framework.Run(pkgs, suite)
	if err != nil {
		fmt.Fprintf(stderr, "spash-vet: %v\n", err)
		return 2
	}

	if *asSARIF {
		// SARIF URIs are relative to the directory the loader ran in
		// (absolute if it cannot be read).
		root, _ := os.Getwd()
		out, err := framework.SARIF(root, version, suite, diags)
		if err != nil {
			fmt.Fprintf(stderr, "spash-vet: %v\n", err)
			return 2
		}
		fmt.Fprintf(stdout, "%s\n", out)
	} else {
		for _, d := range diags {
			fmt.Fprintf(stdout, "%s\n", d)
		}
		if *summary {
			printSummary(stdout, pkgs, supp)
		}
	}

	if len(diags) > 0 {
		if !*asSARIF {
			fmt.Fprintf(stderr, "spash-vet: %d finding(s)\n", len(diags))
		}
		return 1
	}
	return 0
}

func printSummary(w io.Writer, pkgs []*framework.Package, supp []framework.Suppression) {
	fmt.Fprintf(w, "\n== suppressions (//spash:allow) ==\n")
	if len(supp) == 0 {
		fmt.Fprintln(w, "  (none)")
	}
	for _, s := range supp {
		fmt.Fprintf(w, "  %s: [%s] %s\n      reason: %s\n", s.Pos, s.Analyzer, s.Message, s.Reason)
	}
	fmt.Fprintf(w, "\n== guarded functions (//spash:guarded) ==\n")
	n := 0
	for _, pkg := range pkgs {
		for _, a := range framework.Annotations(pkg) {
			fmt.Fprintf(w, "  %s: %s\n      reason: %s\n", a.Pos, a.Func, a.Reason)
			n++
		}
	}
	if n == 0 {
		fmt.Fprintln(w, "  (none)")
	}
}
