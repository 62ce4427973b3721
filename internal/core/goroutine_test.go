package core

import (
	"go/ast"
	"go/parser"
	"go/token"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"testing"

	"reopt/internal/faultinject"
	"reopt/internal/optimizer"
	"reopt/internal/workload/ott"
)

// TestValidationRunsOnCallerGoroutine pins the one-engine contract from
// both sides. Statically: the non-test sources of internal/executor and
// internal/sampling hold no `go` statement and name no sync.WaitGroup,
// sync.Cond or timer, so nothing there can hand part of a validation to
// another goroutine or hold it back for later; and internal/sampling
// names neither executor.Run nor executor.RunCtx, so the general executor
// validates nothing — the skeleton engine is the one validator, and the
// general executor only its test oracle. Dynamically: a thousand
// validations at the largest worker count callers used to ask for leave
// the process's goroutine count where it was, during and after.
func TestValidationRunsOnCallerGoroutine(t *testing.T) {
	banned := map[string]map[string]bool{
		"sync":     {"WaitGroup": true, "Cond": true},
		"time":     {"AfterFunc": true, "NewTimer": true, "NewTicker": true, "Tick": true},
		"executor": {"Run": true, "RunCtx": true},
	}
	for _, pkg := range []string{"executor", "sampling"} {
		dir := filepath.Join("..", pkg)
		entries, err := os.ReadDir(dir)
		if err != nil {
			t.Fatal(err)
		}
		fset := token.NewFileSet()
		parsed, named := 0, false // named: the package's own <pkg>.go was among them
		for _, e := range entries {
			name := e.Name()
			if e.IsDir() || !strings.HasSuffix(name, ".go") || strings.HasSuffix(name, "_test.go") {
				continue
			}
			f, err := parser.ParseFile(fset, filepath.Join(dir, name), nil, 0)
			if err != nil {
				t.Fatal(err)
			}
			parsed++
			named = named || name == pkg+".go"
			ast.Inspect(f, func(n ast.Node) bool {
				switch x := n.(type) {
				case *ast.GoStmt:
					t.Errorf("%s: go statement in internal/%s", fset.Position(x.Pos()), pkg)
				case *ast.SelectorExpr:
					if id, ok := x.X.(*ast.Ident); ok && banned[id.Name][x.Sel.Name] {
						t.Errorf("%s: %s.%s in internal/%s", fset.Position(x.Pos()), id.Name, x.Sel.Name, pkg)
					}
				}
				return true
			})
		}
		if !named {
			t.Fatalf("parsed %d files of %s, none of them %s.go; the walk is looking in the wrong place", parsed, dir, pkg)
		}
	}

	cat, err := ott.Generate(ott.Config{Seed: 1, RowsPerValue: 10})
	if err != nil {
		t.Fatal(err)
	}
	qs, err := ott.Queries(cat, ott.QueryConfig{NumTables: 5, SameConstant: 4, Count: 4, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	r := New(optimizer.New(cat, optimizer.DefaultConfig()), cat)
	r.Opts.Workers = 8
	before := runtime.NumGoroutine()
	// Sampled from inside the engine, as it enters each plan node.
	most := before
	var fi faultinject.Set
	fi.On(faultinject.Rule{Point: faultinject.SkelNode, Do: func(faultinject.Point, string) {
		most = max(most, runtime.NumGoroutine())
	}})
	defer fi.Activate()()
	validations := 0
	for validations < 1000 {
		for _, q := range qs {
			res, err := r.Reoptimize(q)
			if err != nil {
				t.Fatal(err)
			}
			validations += len(res.Rounds)
		}
	}
	if after := runtime.NumGoroutine(); most > before || after > before {
		t.Errorf("%d goroutines before %d validations at Workers=8, up to %d during, %d after", before, validations, most, after)
	}
}
