// Package analyzers is mementovet's static-analysis suite: three
// analyzers that move this repository's load-bearing runtime
// invariants — the allocation-free hot path, the per-shard lock
// discipline, and bit-deterministic encoders — into the type-check
// loop, driven by machine-readable //memento: annotations
// (DESIGN.md §8).
//
// The suite deliberately depends only on the standard library
// (go/ast, go/types): the module is dependency-free and stays that
// way. The framework mirrors the golang.org/x/tools/go/analysis shape
// — an Analyzer runs over a type-checked Pass and reports Diagnostics
// — but is scoped to exactly what the three checks need, including a
// string-keyed cross-package fact store that Check threads through
// the module's packages in dependency order (see driver.go).
//
// # Analyzers
//
//   - noalloc (category "alloc"): functions annotated //memento:noalloc
//     must stay allocation-free in steady state, transitively through
//     every module function they call.
//   - lockguard (category "lock"): struct fields annotated
//     "guarded by mu" may only be touched while mu is held.
//   - nodet (category "det"): packages annotated
//     //memento:deterministic must not read wall clocks, global
//     randomness, or iterate maps (map order leaks into encoders).
//
// Every diagnostic can be waived in place with
// //memento:allow <category> "reason"; waivers require a reason, are
// counted (mementovet -json reports them), and an unused waiver is
// itself a diagnostic, so suppressions cannot rot silently.
package analyzers

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
)

// An Analyzer is one named check over a type-checked package.
type Analyzer struct {
	// Name identifies the analyzer in diagnostics and -json output.
	Name string
	// Category is the //memento:allow token that waives its findings.
	Category string
	// Doc is a one-paragraph description (mementovet help).
	Doc string
	// Run performs the check, reporting findings through pass.Report.
	Run func(pass *Pass)
}

// All returns the full suite in a fixed order.
func All() []*Analyzer {
	return []*Analyzer{NoAlloc, LockGuard, NoDet}
}

// A Diagnostic is one finding, positioned in the analyzed source.
type Diagnostic struct {
	Pos      token.Position
	Analyzer string
	Message  string
}

func (d Diagnostic) String() string {
	return fmt.Sprintf("%s: %s: %s", d.Pos, d.Analyzer, d.Message)
}

// A Pass carries one type-checked package through one analyzer.
type Pass struct {
	Fset  *token.FileSet
	Files []*ast.File // non-test source files only
	Pkg   *types.Package
	Info  *types.Info

	// ModulePath is the module under analysis ("memento" in this
	// repository). Every analyzed package belongs to it; calls outside
	// it are an opaque allowlisted surface.
	ModulePath string

	// Ann holds the package's parsed //memento: annotations.
	Ann *Annotations

	// Facts is the cross-package store: facts for every dependency are
	// readable, and the analyzers write this package's own facts into
	// it as they run.
	Facts *FactStore

	// Report records one finding. The driver wraps it with waiver
	// suppression, so analyzers report unconditionally.
	Report func(Diagnostic)
}

// reportf positions and reports a finding.
func (p *Pass) reportf(analyzer string, pos token.Pos, format string, args ...any) {
	p.Report(Diagnostic{
		Pos:      p.Fset.Position(pos),
		Analyzer: analyzer,
		Message:  fmt.Sprintf(format, args...),
	})
}

// FuncFact is the cross-package summary of one function, keyed by
// FuncKey. noalloc stores its verdicts here; the zero value means
// "never analyzed", which noalloc treats as dirty.
type FuncFact struct {
	// Analyzed distinguishes a computed fact from an absent one.
	Analyzed bool
	// NoAllocClean reports that the function allocates nothing in
	// steady state (waived sites excluded), transitively through
	// module callees. NoAllocWhy carries the first offending site
	// ("calls fmt.Sprintf (memento/internal/core/hhh.go:88)") when
	// dirty.
	NoAllocClean bool
	NoAllocWhy   string
	// NoAllocAnnotated marks //memento:noalloc functions: their own
	// package already diagnosed any dirtiness, so callers do not
	// re-report it.
	NoAllocAnnotated bool
}

// FieldFact is the cross-package summary of one struct field, keyed
// by FieldKey. Reused marks //memento:reused buffers, whose amortized
// append growth noalloc accepts.
type FieldFact struct {
	Reused bool
}

// FactStore accumulates facts across packages in dependency order;
// Check threads one store through the whole module. Keys are strings
// because importers see a package through its export data, whose
// types.Func objects are not the ones its own analysis saw.
type FactStore struct {
	Funcs  map[string]FuncFact
	Fields map[string]FieldFact
}

// FuncKey canonicalizes a function or method object into a stable
// cross-package key: "pkgpath.Name" for functions,
// "pkgpath.Recv.Name" for methods. Generic instantiations collapse
// onto their origin, so Sketch[uint64].Update and
// Sketch[Prefix].Update share one fact.
func FuncKey(fn *types.Func) string {
	fn = fn.Origin()
	pkg := "_"
	if fn.Pkg() != nil {
		pkg = fn.Pkg().Path()
	}
	if sig, ok := fn.Type().(*types.Signature); ok && sig.Recv() != nil {
		return pkg + "." + recvTypeName(sig.Recv().Type()) + "." + fn.Name()
	}
	return pkg + "." + fn.Name()
}

// FieldKey canonicalizes a struct field object ("pkgpath.fieldName"
// scoped by its declaring position is overkill; the per-package
// struct.field pair is unique enough for annotation lookup).
func FieldKey(pkgPath, structName, fieldName string) string {
	return pkgPath + "." + structName + "." + fieldName
}

// recvTypeName unwraps pointers and generic instantiations down to
// the receiver's base type name.
func recvTypeName(t types.Type) string {
	if p, ok := t.(*types.Pointer); ok {
		t = p.Elem()
	}
	if n, ok := t.(*types.Named); ok {
		return n.Obj().Name()
	}
	return t.String()
}

// funcObj resolves the static callee of a call expression: a package
// function, a method on a concrete receiver, or nil for indirect
// calls (function values, interface methods) and builtins.
func funcObj(info *types.Info, call *ast.CallExpr) *types.Func {
	switch fun := ast.Unparen(call.Fun).(type) {
	case *ast.Ident:
		if fn, ok := info.Uses[fun].(*types.Func); ok {
			return fn
		}
	case *ast.SelectorExpr:
		if sel, ok := info.Selections[fun]; ok {
			if fn, ok := sel.Obj().(*types.Func); ok {
				// Interface method calls have no static body.
				if types.IsInterface(sel.Recv()) {
					return nil
				}
				return fn
			}
			return nil
		}
		// Qualified identifier: pkg.Func.
		if fn, ok := info.Uses[fun.Sel].(*types.Func); ok {
			return fn
		}
	case *ast.IndexExpr: // generic instantiation f[T](...)
		if id, ok := ast.Unparen(fun.X).(*ast.Ident); ok {
			if fn, ok := info.Uses[id].(*types.Func); ok {
				return fn
			}
		}
	case *ast.IndexListExpr:
		if id, ok := ast.Unparen(fun.X).(*ast.Ident); ok {
			if fn, ok := info.Uses[id].(*types.Func); ok {
				return fn
			}
		}
	}
	return nil
}

// isConversion reports whether a call expression is a type
// conversion rather than a function call.
func isConversion(info *types.Info, call *ast.CallExpr) bool {
	tv, ok := info.Types[call.Fun]
	return ok && tv.IsType()
}

// builtinName returns the builtin's name ("append", "make", ...) when
// the call invokes one, else "".
func builtinName(info *types.Info, call *ast.CallExpr) string {
	if id, ok := ast.Unparen(call.Fun).(*ast.Ident); ok {
		if b, ok := info.Uses[id].(*types.Builtin); ok {
			return b.Name()
		}
	}
	return ""
}
