// Package framework is a minimal, dependency-free reimplementation of
// the golang.org/x/tools/go/analysis surface the spash-vet suite
// needs: an Analyzer/Pass pair over type-checked packages, exported
// facts that propagate across package boundaries in dependency order,
// plus the repo's source directives:
//
//	//spash:guarded <justification>
//	    on a function declaration's doc comment: the function's raw
//	    persistent-memory mutations are reviewed and justified (e.g.
//	    the target is unpublished memory, or the caller holds the
//	    fallback lock). The justification is mandatory; annotations on
//	    functions that mutate nothing are reported as stale.
//
//	//spash:allow <analyzer> -- <justification>
//	    on (or immediately above) a flagged line: suppresses that
//	    analyzer's diagnostic there. Suppressions are collected and
//	    printed by `spash-vet -summary` so they stay auditable. A
//	    directive that suppresses nothing is itself reported as stale —
//	    justifications must not outlive the finding they justify.
//
//	//spash:aliased -- <justification>
//	    sugar for "//spash:allow respalias": marks a deliberate
//	    retention of a buffer that aliases a resp.Reader's arena (the
//	    zero-copy contract: valid until Release).
//
// The package mirrors go/analysis closely enough that the analyzers
// can be ported to the real framework by swapping imports once the
// module is allowed to vendor golang.org/x/tools. The port re-adds
// FactTypes to the four fact-carrying analyzers (respalias,
// golifetime, epochgate, wireerr): go/analysis serialises facts
// between units and must know their concrete types; this framework
// runs every package in one process and needs no such list.
package framework

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"sort"
	"strings"
)

// An Analyzer is one named invariant check.
type Analyzer struct {
	Name string
	Doc  string
	Run  func(*Pass) error
}

// A Diagnostic is one reported invariant violation.
type Diagnostic struct {
	Pos      token.Position
	Analyzer string
	Message  string
}

func (d Diagnostic) String() string {
	return fmt.Sprintf("%s: [%s] %s", d.Pos, d.Analyzer, d.Message)
}

// A Suppression records a diagnostic that an //spash:allow directive
// silenced, together with the directive's justification.
type Suppression struct {
	Pos       token.Position
	Analyzer  string
	Reason    string
	Message   string
	Directive token.Position
}

// allowDirective is one parsed //spash:allow (or //spash:aliased)
// comment.
type allowDirective struct {
	analyzer string
	reason   string
	pos      token.Position
	used     bool
}

// directiveSet is a package's parsed allow directives, shared by every
// pass over the package so a directive's used flag survives across
// analyzers (stale-allow detection needs the union).
type directiveSet struct {
	// allow maps filename -> line -> directives covering that line.
	allow map[string]map[int][]*allowDirective
	all   []*allowDirective
}

// directivesOf returns pkg's directive set, building it on first use.
func directivesOf(pkg *Package) *directiveSet {
	if pkg.dirs != nil {
		return pkg.dirs
	}
	ds := &directiveSet{allow: map[string]map[int][]*allowDirective{}}
	for _, f := range pkg.Files {
		for _, cg := range f.Comments {
			for _, c := range cg.List {
				d, ok := parseDirective(c.Text)
				if !ok {
					continue
				}
				pos := pkg.Fset.Position(c.Pos())
				dp := &d
				dp.pos = pos
				byLine := ds.allow[pos.Filename]
				if byLine == nil {
					byLine = map[int][]*allowDirective{}
					ds.allow[pos.Filename] = byLine
				}
				// A directive covers its own line and the next one, so
				// it works both trailing a statement and standing on
				// the line above it.
				byLine[pos.Line] = append(byLine[pos.Line], dp)
				byLine[pos.Line+1] = append(byLine[pos.Line+1], dp)
				ds.all = append(ds.all, dp)
			}
		}
	}
	pkg.dirs = ds
	return ds
}

// A Pass carries one analyzer's run over one package. Report applies
// the package's //spash:allow directives, so Diagnostics holds only
// unsuppressed findings. The fact methods exchange facts with passes
// over other packages (Run orders packages so dependencies' facts are
// already present).
type Pass struct {
	Analyzer *Analyzer
	Fset     *token.FileSet
	Files    []*ast.File
	Pkg      *types.Package
	Info     *types.Info
	// ImportPath is the package's import path as the loader saw it
	// (Pkg.Path() matches for real packages; fixtures may differ).
	ImportPath string

	Diagnostics []Diagnostic
	Suppressed  []Suppression

	dirs  *directiveSet
	facts factStore
}

func newPass(a *Analyzer, pkg *Package, facts factStore) *Pass {
	return &Pass{
		Analyzer:   a,
		Fset:       pkg.Fset,
		Files:      pkg.Files,
		Pkg:        pkg.Types,
		Info:       pkg.Info,
		ImportPath: pkg.ImportPath,
		dirs:       directivesOf(pkg),
		facts:      facts,
	}
}

// ExportObjectFact records fact for obj (a package-level object of
// this pass's package) so downstream packages can import it.
func (p *Pass) ExportObjectFact(obj types.Object, fact Fact) {
	p.facts.exportObject(obj, fact)
}

// ImportObjectFact copies the stored fact of fact's concrete type for
// obj into fact, reporting whether one was found. obj may belong to
// any package (typically an import resolved from export data).
func (p *Pass) ImportObjectFact(obj types.Object, fact Fact) bool {
	return p.facts.importObject(obj, fact)
}

// ExportPackageFact records fact for this pass's package.
func (p *Pass) ExportPackageFact(fact Fact) {
	p.facts.exportPackage(p.Pkg.Path(), fact)
}

// ImportPackageFact copies the stored package fact of fact's concrete
// type for pkg into fact, reporting whether one was found.
func (p *Pass) ImportPackageFact(pkg *types.Package, fact Fact) bool {
	if pkg == nil {
		return false
	}
	return p.facts.importPackage(pkg.Path(), fact)
}

// parseDirective parses one allow-shaped directive comment:
// //spash:allow, or its respalias sugar //spash:aliased.
func parseDirective(text string) (allowDirective, bool) {
	if rest, ok := strings.CutPrefix(text, "//spash:aliased"); ok {
		reason := strings.TrimSpace(strings.TrimPrefix(strings.TrimSpace(rest), "--"))
		return allowDirective{analyzer: "respalias", reason: reason}, true
	}
	return parseAllow(text)
}

// parseAllow parses one "//spash:allow <analyzer> -- <reason>" comment.
func parseAllow(text string) (allowDirective, bool) {
	rest, ok := strings.CutPrefix(text, "//spash:allow")
	if !ok {
		return allowDirective{}, false
	}
	rest = strings.TrimSpace(rest)
	name, reason, _ := strings.Cut(rest, " ")
	reason = strings.TrimSpace(strings.TrimPrefix(strings.TrimSpace(reason), "--"))
	return allowDirective{analyzer: name, reason: strings.TrimSpace(reason)}, true
}

// GuardReason returns the justification of a //spash:guarded directive
// in the declaration's doc comment, and whether one is present.
func GuardReason(doc *ast.CommentGroup) (string, bool) {
	if doc == nil {
		return "", false
	}
	for _, c := range doc.List {
		if rest, ok := strings.CutPrefix(c.Text, "//spash:guarded"); ok {
			return strings.TrimSpace(strings.TrimPrefix(strings.TrimSpace(rest), "--")), true
		}
	}
	return "", false
}

// Reportf records a diagnostic at pos unless an //spash:allow
// directive for this analyzer covers the line.
func (p *Pass) Reportf(pos token.Pos, format string, args ...any) {
	position := p.Fset.Position(pos)
	msg := fmt.Sprintf(format, args...)
	for _, d := range p.dirs.allow[position.Filename][position.Line] {
		if d.analyzer == p.Analyzer.Name {
			d.used = true
			p.Suppressed = append(p.Suppressed, Suppression{
				Pos:       position,
				Analyzer:  p.Analyzer.Name,
				Reason:    d.reason,
				Message:   msg,
				Directive: d.pos,
			})
			return
		}
	}
	p.Diagnostics = append(p.Diagnostics, Diagnostic{Pos: position, Analyzer: p.Analyzer.Name, Message: msg})
}

// Run executes every analyzer over every package in dependency order
// (so exported facts are visible to importing packages), returning the
// merged unsuppressed diagnostics (sorted by position) and the
// suppressions. Packages marked FactsOnly contribute facts but no
// diagnostics. Malformed, unknown, and stale directives are reported
// under the pseudo-analyzer "directive".
func Run(pkgs []*Package, analyzers []*Analyzer) ([]Diagnostic, []Suppression, error) {
	facts := factStore{}
	var diags []Diagnostic
	var supp []Suppression
	names := map[string]bool{}
	for _, a := range analyzers {
		names[a.Name] = true
	}
	for _, pkg := range topoOrder(pkgs) {
		pd, ps, err := runPackage(pkg, analyzers, facts, names)
		if err != nil {
			return nil, nil, err
		}
		if pkg.FactsOnly {
			continue // dependency loaded for facts only; findings are the owner's business
		}
		diags = append(diags, pd...)
		supp = append(supp, ps...)
	}
	sort.Slice(diags, func(i, j int) bool { return lessPosition(diags[i].Pos, diags[j].Pos) })
	sort.Slice(supp, func(i, j int) bool { return lessPosition(supp[i].Pos, supp[j].Pos) })
	return diags, supp, nil
}

func runPackage(pkg *Package, analyzers []*Analyzer, facts factStore, names map[string]bool) ([]Diagnostic, []Suppression, error) {
	diags := checkDirectives(pkg, names)
	var supp []Suppression
	ds := directivesOf(pkg)
	for _, d := range ds.all {
		d.used = false // a fresh run re-earns every suppression
	}
	for _, a := range analyzers {
		pass := newPass(a, pkg, facts)
		if err := a.Run(pass); err != nil {
			return nil, nil, fmt.Errorf("%s on %s: %v", a.Name, pkg.ImportPath, err)
		}
		diags = append(diags, pass.Diagnostics...)
		supp = append(supp, pass.Suppressed...)
	}
	// Stale-allow detection: a directive for an analyzer that ran but
	// suppressed nothing no longer attaches to a real finding.
	for _, d := range ds.all {
		if !d.used && names[d.analyzer] {
			diags = append(diags, Diagnostic{
				Pos:      d.pos,
				Analyzer: "directive",
				Message: fmt.Sprintf("stale //spash:allow %s: the %s analyzer reports nothing here — remove the directive",
					d.analyzer, d.analyzer),
			})
		}
	}
	return diags, supp, nil
}

// topoOrder sorts the packages so that every package follows the
// packages it imports (only edges inside the given set matter: the
// loader adds every module-local dependency, and packages outside the
// module carry no facts). Go's import graph is
// acyclic, so one pass is the cross-package fixpoint; ties keep the
// deterministic by-path order.
func topoOrder(pkgs []*Package) []*Package {
	byPath := make(map[string]*Package, len(pkgs))
	for _, p := range pkgs {
		byPath[p.ImportPath] = p
	}
	sorted := append([]*Package(nil), pkgs...)
	sort.Slice(sorted, func(i, j int) bool { return sorted[i].ImportPath < sorted[j].ImportPath })
	out := make([]*Package, 0, len(pkgs))
	state := map[string]int{} // 0 unvisited, 1 visiting, 2 done
	var visit func(p *Package)
	visit = func(p *Package) {
		switch state[p.ImportPath] {
		case 1, 2:
			return // a cycle cannot occur in a valid import graph; be safe anyway
		}
		state[p.ImportPath] = 1
		for _, imp := range p.Imports {
			if dep, ok := byPath[imp]; ok {
				visit(dep)
			}
		}
		state[p.ImportPath] = 2
		out = append(out, p)
	}
	for _, p := range sorted {
		visit(p)
	}
	return out
}

func lessPosition(a, b token.Position) bool {
	if a.Filename != b.Filename {
		return a.Filename < b.Filename
	}
	if a.Line != b.Line {
		return a.Line < b.Line
	}
	return a.Column < b.Column
}

// checkDirectives validates every spash: directive in the package: the
// verb must be known, //spash:allow must name a known analyzer, and
// every directive must carry a justification.
func checkDirectives(pkg *Package, analyzers map[string]bool) []Diagnostic {
	var diags []Diagnostic
	report := func(pos token.Pos, format string, args ...any) {
		diags = append(diags, Diagnostic{
			Pos:      pkg.Fset.Position(pos),
			Analyzer: "directive",
			Message:  fmt.Sprintf(format, args...),
		})
	}
	for _, f := range pkg.Files {
		for _, cg := range f.Comments {
			for _, c := range cg.List {
				switch {
				case strings.HasPrefix(c.Text, "//spash:allow"):
					d, _ := parseAllow(c.Text)
					if !analyzers[d.analyzer] {
						report(c.Pos(), "//spash:allow names unknown analyzer %q", d.analyzer)
					}
					if d.reason == "" {
						report(c.Pos(), "//spash:allow %s needs a justification (\"//spash:allow %s -- why\")", d.analyzer, d.analyzer)
					}
				case strings.HasPrefix(c.Text, "//spash:aliased"):
					if d, _ := parseDirective(c.Text); d.reason == "" {
						report(c.Pos(), "//spash:aliased needs a justification (\"//spash:aliased -- why\")")
					}
				case strings.HasPrefix(c.Text, "//spash:guarded"):
					if reason, _ := GuardReason(&ast.CommentGroup{List: []*ast.Comment{c}}); reason == "" {
						report(c.Pos(), "//spash:guarded needs a justification (\"//spash:guarded -- why\")")
					}
				case strings.HasPrefix(c.Text, "//spash:"):
					report(c.Pos(), "unknown directive %q", strings.SplitN(c.Text, " ", 2)[0])
				}
			}
		}
	}
	return diags
}

// Annotation is one //spash:guarded annotation found in a package
// (collected for the driver's -summary listing).
type Annotation struct {
	Pos    token.Position
	Func   string
	Reason string
}

// Annotations lists every //spash:guarded annotation in pkg.
func Annotations(pkg *Package) []Annotation {
	var out []Annotation
	for _, f := range pkg.Files {
		for _, decl := range f.Decls {
			fd, ok := decl.(*ast.FuncDecl)
			if !ok {
				continue
			}
			if reason, ok := GuardReason(fd.Doc); ok {
				out = append(out, Annotation{
					Pos:    pkg.Fset.Position(fd.Pos()),
					Func:   FuncDisplayName(fd),
					Reason: reason,
				})
			}
		}
	}
	return out
}

// FuncDisplayName renders a function declaration's name including any
// receiver type ("(*Pool).Store64" or "Recover").
func FuncDisplayName(fd *ast.FuncDecl) string {
	if fd.Recv == nil || len(fd.Recv.List) == 0 {
		return fd.Name.Name
	}
	var b strings.Builder
	b.WriteString("(")
	writeTypeExpr(&b, fd.Recv.List[0].Type)
	b.WriteString(").")
	b.WriteString(fd.Name.Name)
	return b.String()
}

func writeTypeExpr(b *strings.Builder, e ast.Expr) {
	switch t := e.(type) {
	case *ast.StarExpr:
		b.WriteString("*")
		writeTypeExpr(b, t.X)
	case *ast.Ident:
		b.WriteString(t.Name)
	case *ast.IndexExpr:
		writeTypeExpr(b, t.X)
	case *ast.IndexListExpr:
		writeTypeExpr(b, t.X)
	default:
		b.WriteString("?")
	}
}
