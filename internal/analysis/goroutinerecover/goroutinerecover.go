// Package goroutinerecover enforces the §5 panic-containment
// contract: in the engine and serving packages, every goroutine
// launched with `go` must either install a recover() at its own
// boundary (like the per-tenant close goroutines of server.Drain) or
// delegate its work to a contained runner (a function in the same
// package whose body begins with a recover defer). Without this, one
// panicking goroutine crashes the whole process instead of failing one
// task. The engine packages start no goroutine at all today
// (core's TestValidationRunsOnCallerGoroutine); the check keeps any
// future one contained.
package goroutinerecover

import (
	"go/ast"
	"go/types"

	"reopt/internal/analysis"
)

// Scope limits the check to the packages whose goroutine boundaries
// the §5 contract names. Substring match on the import path; nil
// means every package (fixtures use the real paths via
// testdata/src/internal/...).
var Scope = []string{"internal/executor", "internal/sampling", "internal/core", "internal/server"}

var Analyzer = &analysis.Analyzer{
	Name: "goroutinerecover",
	Doc: "every `go` statement in internal/{executor,sampling,core,server} must defer a recover() " +
		"or delegate to a contained runner, so one panicking goroutine fails one task, not the process (DESIGN.md §5)",
	Run: run,
}

func run(pass *analysis.Pass) error {
	if !analysis.InScope(pass.PkgPath, Scope) {
		return nil
	}
	contained := containedFuncs(pass)
	for _, f := range pass.Files {
		ast.Inspect(f, func(n ast.Node) bool {
			g, ok := n.(*ast.GoStmt)
			if !ok {
				return true
			}
			if !goStmtContained(pass, g, contained) {
				pass.Reportf(g.Pos(), "goroutine without panic containment: body must defer a recover() "+
					"or delegate to a contained runner (DESIGN.md §5)")
			}
			return true
		})
	}
	return nil
}

// containedFuncs collects the package's functions and methods whose
// bodies install a top-level recover defer — the "known contained
// runners" a goroutine may delegate to.
func containedFuncs(pass *analysis.Pass) map[*types.Func]bool {
	out := map[*types.Func]bool{}
	for _, f := range pass.Files {
		for _, decl := range f.Decls {
			fd, ok := decl.(*ast.FuncDecl)
			if !ok || fd.Body == nil {
				continue
			}
			if hasTopLevelRecoverDefer(pass, fd.Body) {
				if fn, ok := pass.TypesInfo.Defs[fd.Name].(*types.Func); ok {
					out[fn] = true
				}
			}
		}
	}
	return out
}

// hasTopLevelRecoverDefer reports whether any top-level statement of
// body is `defer func() { ... recover() ... }()` (or defers a
// package-level function that itself calls recover — resolved one
// level deep).
func hasTopLevelRecoverDefer(pass *analysis.Pass, body *ast.BlockStmt) bool {
	for _, stmt := range body.List {
		d, ok := stmt.(*ast.DeferStmt)
		if !ok {
			continue
		}
		switch fun := ast.Unparen(d.Call.Fun).(type) {
		case *ast.FuncLit:
			if callsRecover(pass, fun.Body) {
				return true
			}
		default:
			if fn := analysis.Callee(pass.TypesInfo, d.Call); fn != nil {
				if decl := funcDecl(pass, fn); decl != nil && decl.Body != nil && callsRecover(pass, decl.Body) {
					return true
				}
			}
		}
	}
	return false
}

func callsRecover(pass *analysis.Pass, n ast.Node) bool {
	found := false
	ast.Inspect(n, func(c ast.Node) bool {
		if call, ok := c.(*ast.CallExpr); ok && analysis.IsBuiltinCall(pass.TypesInfo, call, "recover") {
			found = true
		}
		return !found
	})
	return found
}

// funcDecl finds the syntax of a package-local function.
func funcDecl(pass *analysis.Pass, fn *types.Func) *ast.FuncDecl {
	for _, f := range pass.Files {
		for _, decl := range f.Decls {
			if fd, ok := decl.(*ast.FuncDecl); ok {
				if pass.TypesInfo.Defs[fd.Name] == fn {
					return fd
				}
			}
		}
	}
	return nil
}

// goStmtContained decides one `go` statement.
func goStmtContained(pass *analysis.Pass, g *ast.GoStmt, contained map[*types.Func]bool) bool {
	// go pkgFunc(...) / go recv.method(...): contained iff the callee is.
	if lit, ok := ast.Unparen(g.Call.Fun).(*ast.FuncLit); ok {
		// go func() { ... }(): contained iff the literal installs its
		// own recover defer, or delegates — any call in the body to a
		// contained runner counts, which accepts the pool worker
		// shape (a claim loop around a contained unit runner) without blessing
		// bodies that do raw work before delegating; the fixture pins
		// the accepted shapes.
		if hasTopLevelRecoverDefer(pass, lit.Body) {
			return true
		}
		return delegatesToContained(pass, lit.Body, contained)
	}
	fn := analysis.Callee(pass.TypesInfo, g.Call)
	return fn != nil && contained[fn]
}

func delegatesToContained(pass *analysis.Pass, body *ast.BlockStmt, contained map[*types.Func]bool) bool {
	found := false
	ast.Inspect(body, func(n ast.Node) bool {
		if call, ok := n.(*ast.CallExpr); ok {
			if fn := analysis.Callee(pass.TypesInfo, call); fn != nil && contained[fn] {
				found = true
			}
		}
		return !found
	})
	return found
}
