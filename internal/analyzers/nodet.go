// nodet keeps the replication and codec planes bit-deterministic: a
// package annotated //memento:deterministic (or a single function
// annotated the same way) encodes the same state to the same bytes on
// every node, so base+delta chains hash identically and format-v1
// goldens never drift.
//
// Three nondeterminism sources are flagged:
//
//   - wall-clock reads: time.Now / time.Since / time.Until
//   - global randomness: any call into math/rand or math/rand/v2
//   - map iteration: `range` over a map-typed expression — Go
//     randomizes iteration order, so any ordered output derived from
//     it (encoders, sorted-by-count snapshots with unsorted ties) is
//     nondeterministic
//
// The collect-then-sort idiom — range a map into a scratch slice,
// sort by the full key, then emit — is legitimate; the range line
// still flags, and carries a //memento:allow det waiver whose reason
// names the sort that restores the order. That keeps every map
// iteration in a deterministic package an explicit, audited decision.

package analyzers

import (
	"go/ast"
	"go/types"
)

// NoDet is the determinism analyzer.
var NoDet = &Analyzer{
	Name:     "nodet",
	Category: "det",
	Doc: "report wall-clock reads, global randomness and map iteration " +
		"inside //memento:deterministic packages or functions",
	Run: runNoDet,
}

func runNoDet(pass *Pass) {
	for _, f := range pass.Files {
		for _, decl := range f.Decls {
			d, ok := decl.(*ast.FuncDecl)
			if !ok || d.Body == nil {
				continue
			}
			scoped := pass.Ann.PkgDeterministic
			if fa := pass.Ann.Funcs[d]; fa != nil && fa.Deterministic {
				scoped = true
			}
			if !scoped {
				continue
			}
			checkDeterminism(pass, d)
		}
	}
}

func checkDeterminism(pass *Pass, d *ast.FuncDecl) {
	ast.Inspect(d.Body, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.RangeStmt:
			if t := pass.Info.TypeOf(n.X); t != nil {
				if _, isMap := t.Underlying().(*types.Map); isMap {
					if !pass.Ann.waive("det", pass.Fset.Position(n.Pos())) {
						pass.reportf("nodet", n.Pos(),
							"map iteration order is nondeterministic (collect, sort by full key, then emit — and waive with the sort named)")
					}
				}
			}
		case *ast.CallExpr:
			fn := funcObj(pass.Info, n)
			if fn == nil || fn.Pkg() == nil {
				return true
			}
			switch fn.Pkg().Path() {
			case "time":
				switch fn.Name() {
				case "Now", "Since", "Until":
					if !pass.Ann.waive("det", pass.Fset.Position(n.Pos())) {
						pass.reportf("nodet", n.Pos(),
							"time.%s reads the wall clock; deterministic code takes timestamps as inputs", fn.Name())
					}
				}
			case "math/rand", "math/rand/v2":
				if !pass.Ann.waive("det", pass.Fset.Position(n.Pos())) {
					pass.reportf("nodet", n.Pos(),
						"%s.%s is nondeterministic; thread seeds or identities in explicitly", fn.Pkg().Path(), fn.Name())
				}
			}
		}
		return true
	})
}
