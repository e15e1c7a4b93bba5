// Package panicfree enforces PR 3's recovery contract: recovery,
// scrub, fsck, and dump paths report damage as typed errors and never
// panic. The only allowed panic is the re-raise idiom
//
//	if r := recover(); r != nil {
//	        ... inspect for pmem.AccessError ...
//	        panic(r) // not ours, re-raise
//	}
//
// i.e. panic(x) where x was assigned from the recover() builtin in the
// same package.
package panicfree

import (
	"go/ast"
	"go/types"
	"path/filepath"
	"regexp"

	"spash/internal/analysis/framework"
)

var Analyzer = &framework.Analyzer{
	Name: "panicfree",
	Doc:  "no panic in recovery/scrub/fsck paths except re-raising a recover()ed value",
	Run:  run,
}

// ScopeFiles are file basenames that hold recovery-path code wholesale.
var ScopeFiles = map[string]bool{
	"recover.go":   true,
	"check.go":     true,
	"dump.go":      true,
	"integrity.go": true,
}

// scopeFunc matches top-level functions that are recovery paths even
// when they live in other files.
var scopeFunc = regexp.MustCompile(`(?i)^(recover|attach|fsck|verify|scrub|salvage|quarantine|repair|checkinvariants)`)

func run(pass *framework.Pass) error {
	// Objects assigned from the recover() builtin anywhere in the
	// package; panic(x) on one of these is the re-raise idiom.
	recovered := map[types.Object]bool{}
	for _, file := range pass.Files {
		ast.Inspect(file, func(n ast.Node) bool {
			as, ok := n.(*ast.AssignStmt)
			if !ok || len(as.Lhs) != 1 || len(as.Rhs) != 1 {
				return true
			}
			call, ok := as.Rhs[0].(*ast.CallExpr)
			if !ok {
				return true
			}
			id, ok := call.Fun.(*ast.Ident)
			if !ok || id.Name != "recover" {
				return true
			}
			if lhs, ok := as.Lhs[0].(*ast.Ident); ok {
				if obj := pass.Info.Defs[lhs]; obj != nil {
					recovered[obj] = true
				} else if obj := pass.Info.Uses[lhs]; obj != nil {
					recovered[obj] = true
				}
			}
			return true
		})
	}

	for _, file := range pass.Files {
		inScopeFile := ScopeFiles[filepath.Base(pass.Fset.Position(file.Pos()).Filename)]
		for _, decl := range file.Decls {
			fd, ok := decl.(*ast.FuncDecl)
			if !ok || fd.Body == nil {
				continue
			}
			if !inScopeFile && !scopeFunc.MatchString(fd.Name.Name) {
				continue
			}
			checkBody(pass, fd, recovered)
		}
	}
	return nil
}

func checkBody(pass *framework.Pass, fd *ast.FuncDecl, recovered map[types.Object]bool) {
	ast.Inspect(fd.Body, func(n ast.Node) bool {
		call, ok := n.(*ast.CallExpr)
		if !ok {
			return true
		}
		id, ok := call.Fun.(*ast.Ident)
		if !ok || id.Name != "panic" {
			return true
		}
		if obj := pass.Info.Uses[id]; obj != nil {
			// A local function shadowing the builtin is not a panic.
			if _, isBuiltin := obj.(*types.Builtin); !isBuiltin {
				return true
			}
		}
		if len(call.Args) == 1 {
			if arg, ok := call.Args[0].(*ast.Ident); ok {
				if obj := pass.Info.Uses[arg]; obj != nil && recovered[obj] {
					return true // re-raise idiom
				}
			}
		}
		pass.Reportf(call.Pos(),
			"panic in recovery path %s: recovery, scrub, and fsck code must return typed errors (the only allowed panic is re-raising a recover()ed value)",
			framework.FuncDisplayName(fd))
		return true
	})
}
