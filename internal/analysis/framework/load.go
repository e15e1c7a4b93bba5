package framework

import (
	"bytes"
	"encoding/json"
	"fmt"
	"go/ast"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"sync"
)

// Package is one type-checked package ready for analysis: the parsed
// files of the package itself plus full type information, with every
// dependency (including the standard library) resolved from the build
// cache's export data rather than re-checked from source.
type Package struct {
	ImportPath string
	Dir        string
	Imports    []string
	Fset       *token.FileSet
	Files      []*ast.File
	Filenames  []string
	Types      *types.Package
	Info       *types.Info
	// FactsOnly marks a dependency loaded from source solely so the
	// fact-producing analyzers can run over it; its diagnostics are
	// not reported (they belong to a run that targets it).
	FactsOnly bool

	dirs *directiveSet
}

// listEntry is the subset of `go list -json` output the loader needs.
type listEntry struct {
	ImportPath string
	Dir        string
	Export     string
	GoFiles    []string
	Imports    []string
	Standard   bool
	DepOnly    bool
	Error      *struct{ Err string }
}

// Loader loads module packages for analysis. It shells out to the go
// tool for package metadata and export data, then parses and
// type-checks the target packages — and, for cross-package facts, the
// module-local dependencies — from source, in parallel. A Loader is not
// safe for concurrent use (the packages it returns are).
type Loader struct {
	// Dir is the directory go list runs in (the module root). Empty
	// means the current directory.
	Dir string
	// Overlay replaces the content of the named files (absolute paths)
	// at parse time. Used by tests to analyse a mutated copy of a real
	// source file without touching the tree.
	Overlay map[string][]byte

	fset    *token.FileSet
	exports map[string]string // import path -> export data file
	imp     types.Importer
}

// Fset returns the loader's file set (shared by all loaded packages).
func (l *Loader) Fset() *token.FileSet {
	if l.fset == nil {
		l.fset = token.NewFileSet()
	}
	return l.fset
}

func (l *Loader) goList(args ...string) ([]listEntry, error) {
	cmd := exec.Command("go", append([]string{"list", "-e", "-export", "-deps",
		"-json=ImportPath,Dir,Export,GoFiles,Imports,Standard,DepOnly,Error"}, args...)...)
	cmd.Dir = l.Dir
	var stderr bytes.Buffer
	cmd.Stderr = &stderr
	out, err := cmd.Output()
	if err != nil {
		return nil, fmt.Errorf("go list %s: %v\n%s", strings.Join(args, " "), err, stderr.String())
	}
	var entries []listEntry
	dec := json.NewDecoder(bytes.NewReader(out))
	for {
		var e listEntry
		if err := dec.Decode(&e); err == io.EOF {
			break
		} else if err != nil {
			return nil, fmt.Errorf("go list: decoding output: %v", err)
		}
		// Under -e, go list reports a missing or broken package as
		// an entry's Error instead of failing; any one fails the load.
		if e.Error != nil {
			return nil, fmt.Errorf("go list %s: %s", strings.Join(args, " "), e.Error.Err)
		}
		entries = append(entries, e)
	}
	return entries, nil
}

// lockedImporter serialises Import calls: the gc export-data importer
// keeps an internal package cache that is not safe for the loader's
// parallel type-checking.
type lockedImporter struct {
	mu  sync.Mutex
	imp types.Importer
}

func (li *lockedImporter) Import(path string) (*types.Package, error) {
	li.mu.Lock()
	defer li.mu.Unlock()
	return li.imp.Import(path)
}

// ensureImporter records export data for every package in entries and
// (once) builds the shared gc-export-data importer.
func (l *Loader) ensureImporter(entries []listEntry) {
	if l.exports == nil {
		l.exports = make(map[string]string)
	}
	for _, e := range entries {
		if e.Export != "" {
			l.exports[e.ImportPath] = e.Export
		}
	}
	if l.imp == nil {
		lookup := func(path string) (io.ReadCloser, error) {
			f, ok := l.exports[path]
			if !ok {
				return nil, fmt.Errorf("no export data for %q", path)
			}
			return os.Open(f)
		}
		l.imp = &lockedImporter{imp: importer.ForCompiler(l.Fset(), "gc", lookup)}
	}
}

func newInfo() *types.Info {
	return &types.Info{
		Types:      map[ast.Expr]types.TypeAndValue{},
		Defs:       map[*ast.Ident]types.Object{},
		Uses:       map[*ast.Ident]types.Object{},
		Selections: map[*ast.SelectorExpr]*types.Selection{},
		Scopes:     map[ast.Node]*types.Scope{},
	}
}

func (l *Loader) parseFile(filename string) (*ast.File, error) {
	var src any
	if content, ok := l.Overlay[filename]; ok {
		src = content
	}
	return parser.ParseFile(l.Fset(), filename, src, parser.ParseComments)
}

// Load loads the packages matching the go list patterns, type-checking
// each target from source with dependencies resolved from export data.
// Module-local dependencies outside the patterns are loaded from
// source too, marked FactsOnly, so cross-package facts are complete no
// matter how narrow the pattern; standard-library dependencies stay on
// export data. Packages are parsed and type-checked in parallel. A
// pattern that names a missing or broken package is an error, and so
// are patterns that match no package with Go files: a run that
// analyses nothing must not pass as clean.
func (l *Loader) Load(patterns ...string) ([]*Package, error) {
	entries, err := l.goList(patterns...)
	if err != nil {
		return nil, err
	}
	l.ensureImporter(entries)
	l.Fset() // materialise before the parallel phase
	var targets []listEntry
	matched := false
	for _, e := range entries {
		if e.Standard || len(e.GoFiles) == 0 {
			continue
		}
		targets = append(targets, e)
		matched = matched || !e.DepOnly
	}
	if !matched {
		return nil, fmt.Errorf("%s: matched no packages", strings.Join(patterns, " "))
	}
	pkgs := make([]*Package, len(targets))
	errs := make([]error, len(targets))
	sem := make(chan struct{}, runtime.GOMAXPROCS(0))
	var wg sync.WaitGroup
	for i := range targets {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			sem <- struct{}{}
			defer func() { <-sem }()
			pkgs[i], errs[i] = l.check(targets[i])
		}(i)
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return nil, err
		}
	}
	sort.Slice(pkgs, func(i, j int) bool { return pkgs[i].ImportPath < pkgs[j].ImportPath })
	return pkgs, nil
}

func (l *Loader) check(e listEntry) (*Package, error) {
	var files []*ast.File
	var names []string
	for _, f := range e.GoFiles {
		fn := filepath.Join(e.Dir, f)
		af, err := l.parseFile(fn)
		if err != nil {
			return nil, fmt.Errorf("%s: %v", e.ImportPath, err)
		}
		files = append(files, af)
		names = append(names, fn)
	}
	info := newInfo()
	conf := types.Config{Importer: l.imp}
	tpkg, err := conf.Check(e.ImportPath, l.Fset(), files, info)
	if err != nil {
		return nil, fmt.Errorf("type-checking %s: %v", e.ImportPath, err)
	}
	return &Package{
		ImportPath: e.ImportPath,
		Dir:        e.Dir,
		Imports:    e.Imports,
		Fset:       l.Fset(),
		Files:      files,
		Filenames:  names,
		Types:      tpkg,
		Info:       info,
		FactsOnly:  e.DepOnly,
	}, nil
}

// astImports collects the distinct import paths of the files.
func astImports(files []*ast.File) []string {
	seen := map[string]bool{}
	var out []string
	for _, f := range files {
		for _, spec := range f.Imports {
			path, err := strconv.Unquote(spec.Path.Value)
			if err != nil || seen[path] {
				continue
			}
			seen[path] = true
			out = append(out, path)
		}
	}
	sort.Strings(out)
	return out
}

// FixtureDir names one loose directory of Go files to check under an
// import path (an analysistest fixture package).
type FixtureDir struct {
	Dir        string
	ImportPath string
}

// LoadDirs type-checks loose directories of Go files (analysistest
// fixtures) as one multi-package fixture, each under its import path:
// later fixtures may import earlier ones by their fixture import path
// (so a facts-producing "reader" package can be consumed by a "user"
// package, exercising cross-package propagation). Fixtures must be
// listed dependency-first. deps lists go packages the fixtures may
// import (transitive closures are resolved automatically); the spash
// module packages and any std package reachable from them are
// available.
func (l *Loader) LoadDirs(fixtures []FixtureDir, deps ...string) ([]*Package, error) {
	if len(deps) > 0 {
		entries, err := l.goList(deps...)
		if err != nil {
			return nil, err
		}
		l.ensureImporter(entries)
	} else {
		l.ensureImporter(nil)
	}
	checked := map[string]*types.Package{}
	imp := importerFunc(func(path string) (*types.Package, error) {
		if fp, ok := checked[path]; ok {
			return fp, nil
		}
		return l.imp.Import(path)
	})
	var out []*Package
	for _, fx := range fixtures {
		matches, err := filepath.Glob(filepath.Join(fx.Dir, "*.go"))
		if err != nil {
			return nil, err
		}
		if len(matches) == 0 {
			return nil, fmt.Errorf("no Go files in %s", fx.Dir)
		}
		sort.Strings(matches)
		var files []*ast.File
		for _, fn := range matches {
			af, err := l.parseFile(fn)
			if err != nil {
				return nil, err
			}
			files = append(files, af)
		}
		info := newInfo()
		conf := types.Config{Importer: imp}
		tpkg, err := conf.Check(fx.ImportPath, l.Fset(), files, info)
		if err != nil {
			return nil, fmt.Errorf("type-checking fixture %s: %v", fx.Dir, err)
		}
		checked[fx.ImportPath] = tpkg
		out = append(out, &Package{
			ImportPath: fx.ImportPath,
			Dir:        fx.Dir,
			Imports:    astImports(files),
			Fset:       l.Fset(),
			Files:      files,
			Filenames:  matches,
			Types:      tpkg,
			Info:       info,
		})
	}
	return out, nil
}

// importerFunc adapts a function to types.Importer.
type importerFunc func(path string) (*types.Package, error)

func (f importerFunc) Import(path string) (*types.Package, error) { return f(path) }
