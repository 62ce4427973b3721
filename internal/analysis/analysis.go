// Package analysis is a minimal, dependency-free workalike of
// golang.org/x/tools/go/analysis, carrying only what the reoptvet
// suite needs: an Analyzer descriptor, a per-package Pass, and
// Diagnostics.
//
// Why not the real thing: this module deliberately has no external
// dependencies (go.mod has an empty require block, and the build
// environment is offline), so the x/tools framework cannot be
// imported. The types below mirror its API shape — Name/Doc/Run on
// Analyzer, Fset/Files/Pkg/TypesInfo/Report on Pass — so each
// analyzer's Run function would port to the real framework by
// changing one import line. The drivers (cmd/reoptvet and the
// analysistest harness in this directory) stand in for multichecker
// and x/tools' analysistest.
//
// The suite encodes the repository's written contracts (DESIGN.md
// §1–§8): byte-identical results in every cache state, panic
// containment at goroutine boundaries, caches that never see failed
// work, §5.4 budget-vs-ctx discipline, and the sentinel error
// taxonomy. See DESIGN.md §8 for the analyzer-by-analyzer table.
package analysis

import (
	"go/ast"
	"go/token"
	"go/types"
)

// An Analyzer is one static check. Mirrors x/tools' analysis.Analyzer
// (minus Requires/Facts machinery, which no reoptvet check needs).
type Analyzer struct {
	// Name identifies the analyzer in diagnostics and in
	// //reoptvet:ignore directives. Lower-case, no spaces.
	Name string

	// Doc is the one-paragraph contract statement printed by
	// `reoptvet -list`.
	Doc string

	// Run applies the check to one package.
	Run func(*Pass) error
}

// A Pass presents one typechecked package to an Analyzer. Mirrors
// x/tools' analysis.Pass.
type Pass struct {
	Analyzer  *Analyzer
	Fset      *token.FileSet
	Files     []*ast.File
	Pkg       *types.Package
	PkgPath   string // import path (fixtures: path under testdata/src)
	TypesInfo *types.Info

	// Report records one diagnostic. Never nil during Run.
	Report func(Diagnostic)
}

// Reportf reports a diagnostic at pos with a plain message.
func (p *Pass) Reportf(pos token.Pos, msg string) {
	p.Report(Diagnostic{Pos: pos, Message: msg})
}

// A Diagnostic is one finding, attributed to the analyzer that
// produced it (the driver fills Analyzer in).
type Diagnostic struct {
	Pos      token.Pos
	Message  string
	Analyzer string
}

// RunAnalyzer applies one analyzer to one package and returns its raw
// (unfiltered) diagnostics. Ignore-directive filtering is a separate,
// driver-level step — see Filter — so the analysistest harness and
// cmd/reoptvet share identical suppression semantics.
func RunAnalyzer(a *Analyzer, pkg *Package) ([]Diagnostic, error) {
	var out []Diagnostic
	pass := &Pass{
		Analyzer:  a,
		Fset:      pkg.Fset,
		Files:     pkg.Syntax,
		Pkg:       pkg.Types,
		PkgPath:   pkg.PkgPath,
		TypesInfo: pkg.TypesInfo,
		Report: func(d Diagnostic) {
			d.Analyzer = a.Name
			out = append(out, d)
		},
	}
	if err := a.Run(pass); err != nil {
		return nil, err
	}
	return out, nil
}

// A Package is one loaded, typechecked package — the unit both
// drivers iterate over. Produced by the load package and by the
// analysistest harness.
type Package struct {
	PkgPath   string
	Fset      *token.FileSet
	Syntax    []*ast.File
	Types     *types.Package
	TypesInfo *types.Info
}
