// Package ctxdiscipline enforces the §5.4 budget-vs-context rule:
// time budgets ride reopt.WithTimeout (degrading to best-so-far
// results with round 1 shielded), while a context's only job is to
// signal that the caller is gone. Two checks: (1) in internal/server,
// context.WithTimeout/WithDeadline are forbidden — a request timeout
// expressed as a ctx deadline surfaces as a hard failure before the
// first plan instead of a §5.4 degraded answer (DESIGN.md §7); (2) in
// any package, a function that receives a ctx parameter must not pass
// context.Background() or context.TODO() downstream — that detaches
// the callee from disconnect cancellation, leaking work past the
// caller's death. A deliberate exception carries a reasoned
// //reoptvet:ignore, as /v1/validate's all-or-nothing deadline in
// internal/server does for check (1).
package ctxdiscipline

import (
	"go/ast"

	"reopt/internal/analysis"
)

// DeadlineScope limits check (1); nil means every package.
var DeadlineScope = []string{"internal/server"}

var Analyzer = &analysis.Analyzer{
	Name: "ctxdiscipline",
	Doc: "internal/server must not use context.WithTimeout/WithDeadline (budgets ride reopt.WithTimeout, " +
		"§5.4/§7), and no ctx-taking function may pass context.Background()/TODO() downstream",
	Run: run,
}

func run(pass *analysis.Pass) error {
	checkDeadlines(pass)
	checkDetachment(pass)
	return nil
}

func checkDeadlines(pass *analysis.Pass) {
	if !analysis.InScope(pass.PkgPath, DeadlineScope) {
		return
	}
	for _, f := range pass.Files {
		ast.Inspect(f, func(n ast.Node) bool {
			call, ok := n.(*ast.CallExpr)
			if !ok {
				return true
			}
			if name, ok := analysis.IsPkgCall(pass.TypesInfo, call, "context", "WithTimeout", "WithDeadline"); ok {
				pass.Reportf(call.Pos(), "context."+name+" in the serving layer: request timeouts must map "+
					"onto reopt.WithTimeout budgets; ctx is a disconnect signal only (DESIGN.md §5.4, §7)")
			}
			return true
		})
	}
}

func checkDetachment(pass *analysis.Pass) {
	for _, f := range pass.Files {
		ast.Inspect(f, func(n ast.Node) bool {
			var ftype *ast.FuncType
			var body *ast.BlockStmt
			switch fn := n.(type) {
			case *ast.FuncDecl:
				ftype, body = fn.Type, fn.Body
			case *ast.FuncLit:
				ftype, body = fn.Type, fn.Body
			default:
				return true
			}
			if body == nil || !hasCtxParam(pass, ftype) {
				return true
			}
			checkBody(pass, body)
			// Keep descending: nested literals are checked on their own
			// (a ctx-less literal inside a ctx-taking function is NOT
			// exempt — it closes over the outer ctx — but flagging it
			// needs the outer walk, so visit everything from here).
			return true
		})
	}
}

func hasCtxParam(pass *analysis.Pass, ftype *ast.FuncType) bool {
	if ftype.Params == nil {
		return false
	}
	for _, field := range ftype.Params.List {
		if tv, ok := pass.TypesInfo.Types[field.Type]; ok && analysis.IsContextType(tv.Type) {
			return true
		}
	}
	return false
}

// checkBody flags context.Background()/TODO() used as a call argument
// or assigned/returned within a ctx-taking function.
func checkBody(pass *analysis.Pass, body *ast.BlockStmt) {
	ast.Inspect(body, func(n ast.Node) bool {
		// Do not descend into nested function literals that take their
		// own ctx: their discipline is judged against their own
		// parameter, by the outer walk in checkDetachment.
		if lit, ok := n.(*ast.FuncLit); ok && hasCtxParam(pass, lit.Type) {
			return false
		}
		call, ok := n.(*ast.CallExpr)
		if !ok {
			return true
		}
		if name, ok := analysis.IsPkgCall(pass.TypesInfo, call, "context", "Background", "TODO"); ok {
			pass.Reportf(call.Pos(), "context."+name+"() inside a ctx-taking function detaches the callee "+
				"from disconnect cancellation; pass the ctx parameter (DESIGN.md §5.4)")
		}
		return true
	})
}
