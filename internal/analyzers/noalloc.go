// noalloc enforces the repository's core performance contract: the
// paper's constant-time update path (and the snapshot/encode paths
// the CI alloc gates cover) must not allocate in steady state.
//
// A function annotated //memento:noalloc must contain no allocating
// construct, and every *module* function it statically calls must be
// allocation-free too — cleanliness is computed bottom-up per package
// and flows across packages as facts, so a fmt.Sprintf added three
// calls below HHH.UpdateBatch surfaces at the annotated root's
// package boundary.
//
// Allocating constructs:
//
//   - make, new, print/println
//   - slice and map composite literals, and &T{} (value struct
//     literals are stack-friendly and accepted)
//   - append, unless the destination is rooted at a parameter (the
//     append-style `dst = append(dst, ...)` API, where amortization
//     is the caller's contract) or at a field marked //memento:reused
//     (pooled/steady-state buffers)
//   - string concatenation and allocating conversions
//     (string<->[]byte/[]rune, integer->string)
//   - interface boxing: explicit conversion, assignment, or argument
//     passing of a non-pointer-shaped concrete value into an
//     interface
//   - closure literals that capture variables, and go statements
//   - map writes (hot paths run on internal/keyidx, not runtime maps)
//   - calls into stdlib packages outside a small allowlist
//     (sync/atomic, math, math/bits, encoding/binary, hash/maphash,
//     unsafe, sync.Mutex/RWMutex, sort/search helpers in slices);
//     sync.Pool.Get/Put is flagged explicitly — pool misses allocate
//     and want a //memento:allow alloc waiver naming the cold branch
//   - calls to module functions that are themselves dirty
//
// Indirect calls (function values such as the shared hash closures,
// interface methods) are assumed clean: the repository's hot paths
// pin them with benchmarks and the CI alloc gate. This is the one
// deliberate soundness gap; it keeps the annotation burden at zero
// for the pervasive `s.hash(x)` idiom.
//
// Deferred calls are accepted (open-coded defers do not allocate), and
// so are panic and recover.

package analyzers

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"strings"
)

// NoAlloc is the allocation-freedom analyzer.
var NoAlloc = &Analyzer{
	Name:     "noalloc",
	Category: "alloc",
	Doc: "report allocating constructs inside //memento:noalloc functions " +
		"and the module functions they transitively call",
	Run: runNoAlloc,
}

// allocSite is one reason a function is dirty.
type allocSite struct {
	pos token.Pos
	msg string
	// suppress marks sites that dirty the function for propagation
	// but are already reported elsewhere (calls to an annotated
	// callee, whose own package diagnosed it).
	suppress bool
}

// funcInfo is the per-function working state of one package run.
type funcInfo struct {
	decl    *ast.FuncDecl
	obj     *types.Func
	sites   []allocSite
	callees []callEdge // same-package static calls, in source order
	clean   bool
	why     string
}

// callEdge is one static call to a same-package function.
type callEdge struct {
	callee *funcInfo
	pos    token.Pos
}

func runNoAlloc(pass *Pass) {
	infos, byObj := collectFuncs(pass)

	// Intrinsic pass: direct allocation sites plus cross-package
	// verdicts (facts are final for dependencies).
	for _, fi := range infos {
		collectAllocSites(pass, fi, byObj)
	}

	// Same-package fixpoint: dirtiness propagates up call edges until
	// stable (handles recursion). Each edge is consumed the first sweep
	// its callee is known dirty, so sites are recorded exactly once; a
	// waived call site accepts the allocation and does not dirty the
	// caller. Functions are swept in declaration order and edges in
	// source order, so the chain a report names is the same every run.
	for changed := true; changed; {
		changed = false
		for _, fi := range infos {
			kept := fi.callees[:0]
			for _, e := range fi.callees {
				if e.callee.clean {
					kept = append(kept, e)
					continue
				}
				if pass.Ann.waive("alloc", pass.Fset.Position(e.pos)) {
					continue
				}
				msg := fmt.Sprintf("calls %s, which allocates: %s", e.callee.obj.Name(), e.callee.why)
				ann := pass.Ann.Funcs[e.callee.decl]
				fi.sites = append(fi.sites, allocSite{pos: e.pos, msg: msg, suppress: ann != nil && ann.NoAlloc})
				if fi.clean {
					fi.clean = false
					fi.why = msg
					changed = true
				}
			}
			fi.callees = kept
		}
	}

	// Export facts and report inside annotated functions.
	for _, fi := range infos {
		ann := pass.Ann.Funcs[fi.decl]
		annotated := ann != nil && ann.NoAlloc
		fact := pass.Facts.Funcs[FuncKey(fi.obj)]
		fact.Analyzed = true
		fact.NoAllocClean = fi.clean
		fact.NoAllocWhy = fi.why
		fact.NoAllocAnnotated = annotated
		pass.Facts.Funcs[FuncKey(fi.obj)] = fact
		if !annotated {
			continue
		}
		for _, site := range fi.sites {
			if !site.suppress {
				pass.reportf("noalloc", site.pos, "%s", site.msg)
			}
		}
	}
}

// collectFuncs lists every function declaration with a body, in
// declaration order, and indexes them by object.
func collectFuncs(pass *Pass) ([]*funcInfo, map[*types.Func]*funcInfo) {
	var infos []*funcInfo
	byObj := make(map[*types.Func]*funcInfo)
	for _, f := range pass.Files {
		for _, decl := range f.Decls {
			d, ok := decl.(*ast.FuncDecl)
			if !ok || d.Body == nil {
				continue
			}
			obj, ok := pass.Info.Defs[d.Name].(*types.Func)
			if !ok {
				continue
			}
			fi := &funcInfo{decl: d, obj: obj, clean: true}
			infos = append(infos, fi)
			byObj[obj] = fi
		}
	}
	return infos, byObj
}

// collectAllocSites walks one function body recording intrinsic
// allocation sites (waived ones excluded) and same-package call
// edges. Nested closure bodies are not descended into: the closure
// literal itself is the allocation, and calling it is indirect.
func collectAllocSites(pass *Pass, fi *funcInfo, byObj map[*types.Func]*funcInfo) {
	rooted := paramRootedVars(pass, fi.decl)
	dirty := func(pos token.Pos, format string, args ...any) {
		if pass.Ann.waive("alloc", pass.Fset.Position(pos)) {
			return
		}
		msg := fmt.Sprintf(format, args...)
		if fi.clean {
			fi.clean = false
			fi.why = msg
		}
		fi.sites = append(fi.sites, allocSite{pos: pos, msg: msg})
	}
	var walk func(n ast.Node) bool
	walk = func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.FuncLit:
			if free := capturesVariables(pass, n); free != "" {
				dirty(n.Pos(), "closure captures %s (heap-allocated environment)", free)
			}
			return false // the body runs via an indirect call
		case *ast.GoStmt:
			dirty(n.Pos(), "go statement allocates a goroutine")
			return false
		case *ast.CompositeLit:
			switch pass.Info.TypeOf(n).Underlying().(type) {
			case *types.Slice:
				dirty(n.Pos(), "slice literal allocates")
			case *types.Map:
				dirty(n.Pos(), "map literal allocates")
			}
		case *ast.UnaryExpr:
			if n.Op == token.AND {
				if _, ok := ast.Unparen(n.X).(*ast.CompositeLit); ok {
					dirty(n.Pos(), "&composite literal escapes to the heap")
				}
			}
		case *ast.BinaryExpr:
			if n.Op == token.ADD && isString(pass.Info.TypeOf(n)) {
				dirty(n.Pos(), "string concatenation allocates")
			}
		case *ast.AssignStmt:
			for _, lhs := range n.Lhs {
				if idx, ok := ast.Unparen(lhs).(*ast.IndexExpr); ok {
					if _, ok := pass.Info.TypeOf(idx.X).Underlying().(*types.Map); ok {
						dirty(idx.Pos(), "map write (runtime maps allocate on growth; use internal/keyidx)")
					}
				}
			}
			checkImplicitBoxing(pass, n, dirty)
		case *ast.CallExpr:
			checkCall(pass, fi, byObj, n, rooted, dirty)
		}
		return true
	}
	ast.Inspect(fi.decl.Body, func(n ast.Node) bool {
		if n == nil {
			return false
		}
		return walk(n)
	})
}

// checkCall classifies one call expression.
func checkCall(pass *Pass, fi *funcInfo, byObj map[*types.Func]*funcInfo, call *ast.CallExpr, rooted map[*types.Var]bool, dirty func(token.Pos, string, ...any)) {
	if isConversion(pass.Info, call) {
		checkConversion(pass, call, dirty)
		return
	}
	switch builtinName(pass.Info, call) {
	case "make":
		dirty(call.Pos(), "make allocates")
		return
	case "new":
		dirty(call.Pos(), "new allocates")
		return
	case "append":
		if len(call.Args) > 0 && !appendDstOK(pass, call.Args[0], rooted) {
			dirty(call.Pos(), "append may grow a non-reused buffer (root it in a parameter or mark the field //memento:reused)")
		}
		return
	case "print", "println":
		dirty(call.Pos(), "%s allocates", builtinName(pass.Info, call))
		return
	case "":
		// not a builtin
	default:
		return // len, cap, copy, delete, clear, min, max, panic, recover
	}

	fn := funcObj(pass.Info, call)
	if fn == nil {
		// Indirect call (function value, interface method): assumed
		// clean — see the package comment for the rationale.
		checkArgBoxing(pass, call, nil, dirty)
		return
	}
	checkArgBoxing(pass, call, fn, dirty)

	pkg := fn.Pkg()
	if pkg == nil { // error.Error, unsafe builtins
		return
	}
	if pass.inModulePath(pkg.Path()) {
		if pkg == pass.Pkg {
			if callee, ok := byObj[fn.Origin()]; ok {
				fi.callees = append(fi.callees, callEdge{callee, call.Pos()})
			}
			return
		}
		fact, ok := pass.Facts.Funcs[FuncKey(fn)]
		if !ok || !fact.Analyzed {
			dirty(call.Pos(), "calls %s, which has no noalloc fact (package not analyzed?)", FuncKey(fn))
			return
		}
		if !fact.NoAllocClean {
			pos := pass.Fset.Position(call.Pos())
			if pass.Ann.waive("alloc", pos) {
				return
			}
			msg := fmt.Sprintf("calls %s, which allocates: %s", FuncKey(fn), fact.NoAllocWhy)
			if fi.clean {
				fi.clean = false
				fi.why = msg
			}
			fi.sites = append(fi.sites, allocSite{pos: call.Pos(), msg: msg, suppress: fact.NoAllocAnnotated})
		}
		return
	}
	if special, ok := stdlibAllocVerdict(fn); !ok {
		dirty(call.Pos(), "%s", special)
	}
}

// inModulePath reports whether an import path belongs to the module
// under analysis.
func (p *Pass) inModulePath(path string) bool {
	if p.ModulePath == "" {
		return false
	}
	return path == p.ModulePath || strings.HasPrefix(path, p.ModulePath+"/")
}

// stdlibAllocVerdict allowlists the standard-library surface the hot
// paths are built on. ok=false returns the diagnostic message.
func stdlibAllocVerdict(fn *types.Func) (msg string, ok bool) {
	pkg := fn.Pkg().Path()
	switch pkg {
	case "sync/atomic", "math", "math/bits", "encoding/binary", "hash/maphash", "unsafe", "cmp":
		return "", true
	case "sync":
		recv := ""
		if sig, k := fn.Type().(*types.Signature); k && sig.Recv() != nil {
			recv = recvTypeName(sig.Recv().Type())
		}
		switch recv {
		case "Mutex", "RWMutex", "WaitGroup", "Once", "Locker":
			return "", true
		case "Pool":
			return "sync.Pool access (allocates on pool miss; waive the cold branch with //memento:allow alloc)", false
		}
	case "errors":
		switch fn.Name() {
		case "Is", "As", "Unwrap":
			return "", true
		}
	case "time":
		// Clock reads and their scalar accessors (obs timestamps,
		// latency spans) do not allocate. Formatting and timers stay
		// off-limits. nodet still bans these in deterministic scopes.
		switch fn.Name() {
		case "Now", "Since", "Until",
			"UnixNano", "Unix", "Nanoseconds", "Microseconds",
			"Milliseconds", "Seconds":
			return "", true
		}
	case "slices":
		for _, prefix := range []string{"Sort", "BinarySearch", "Index", "Contains", "Min", "Max", "Equal", "Reverse"} {
			if strings.HasPrefix(fn.Name(), prefix) {
				return "", true
			}
		}
	case "fmt":
		return fmt.Sprintf("calls fmt.%s, which allocates", fn.Name()), false
	}
	return fmt.Sprintf("calls %s.%s, outside the noalloc stdlib allowlist", pkg, fn.Name()), false
}

// checkConversion flags allocating conversions.
func checkConversion(pass *Pass, call *ast.CallExpr, dirty func(token.Pos, string, ...any)) {
	if len(call.Args) != 1 {
		return
	}
	dst := pass.Info.TypeOf(call.Fun)
	src := pass.Info.TypeOf(call.Args[0])
	if dst == nil || src == nil {
		return
	}
	switch {
	case isString(dst) && !isString(src):
		dirty(call.Pos(), "conversion to string allocates")
	case isByteOrRuneSlice(dst) && isString(src):
		dirty(call.Pos(), "string to %s conversion allocates", dst)
	case types.IsInterface(dst.Underlying()) && !types.IsInterface(src.Underlying()) && !pointerShaped(src) && !zeroSized(src):
		dirty(call.Pos(), "conversion boxes %s into an interface", src)
	}
}

// checkImplicitBoxing flags assignments of non-pointer-shaped
// concrete values into interface-typed destinations.
func checkImplicitBoxing(pass *Pass, n *ast.AssignStmt, dirty func(token.Pos, string, ...any)) {
	if len(n.Lhs) != len(n.Rhs) {
		return
	}
	for i, lhs := range n.Lhs {
		lt := pass.Info.TypeOf(lhs)
		rt := pass.Info.TypeOf(n.Rhs[i])
		if lt == nil || rt == nil {
			continue
		}
		if types.IsInterface(lt.Underlying()) && !types.IsInterface(rt.Underlying()) && !pointerShaped(rt) && !isUntypedNil(rt) && !zeroSized(rt) {
			dirty(n.Rhs[i].Pos(), "assignment boxes %s into an interface", rt)
		}
	}
}

// checkArgBoxing flags arguments boxed into interface parameters.
// fn may be nil for indirect calls, in which case the signature comes
// from the call expression's function type.
func checkArgBoxing(pass *Pass, call *ast.CallExpr, fn *types.Func, dirty func(token.Pos, string, ...any)) {
	var sig *types.Signature
	if fn != nil {
		sig, _ = fn.Type().(*types.Signature)
	} else if t := pass.Info.TypeOf(call.Fun); t != nil {
		sig, _ = t.Underlying().(*types.Signature)
	}
	if sig == nil {
		return
	}
	params := sig.Params()
	for i, arg := range call.Args {
		var pt types.Type
		if sig.Variadic() && i >= params.Len()-1 {
			if call.Ellipsis.IsValid() {
				break // slice passed through, no per-arg boxing
			}
			pt = params.At(params.Len() - 1).Type().(*types.Slice).Elem()
		} else if i < params.Len() {
			pt = params.At(i).Type()
		}
		if pt == nil {
			continue
		}
		at := pass.Info.TypeOf(arg)
		if at == nil {
			continue
		}
		if types.IsInterface(pt.Underlying()) && !types.IsInterface(at.Underlying()) && !pointerShaped(at) && !isUntypedNil(at) && !zeroSized(at) {
			dirty(arg.Pos(), "argument boxes %s into interface parameter", at)
		}
	}
}

// appendDstOK reports whether an append destination is rooted at a
// parameter or a //memento:reused field.
func appendDstOK(pass *Pass, dst ast.Expr, rooted map[*types.Var]bool) bool {
	for {
		switch e := ast.Unparen(dst).(type) {
		case *ast.Ident:
			v, ok := pass.Info.Uses[e].(*types.Var)
			if !ok {
				return false
			}
			return rooted[v]
		case *ast.SelectorExpr:
			if v, ok := pass.Info.Uses[e.Sel].(*types.Var); ok && v.IsField() {
				// Origin collapses instantiated-generic field Vars onto
				// the declaration-site Var the annotation is keyed by.
				if pass.Ann.Reused[v.Origin()] {
					return true
				}
				if key, ok := fieldFactKey(pass, e); ok {
					if fact, found := pass.Facts.Fields[key]; found && fact.Reused {
						return true
					}
				}
				return false
			}
			return false
		case *ast.IndexExpr:
			dst = e.X
		case *ast.SliceExpr:
			dst = e.X
		case *ast.StarExpr:
			dst = e.X
		default:
			return false
		}
	}
}

// fieldFactKey derives the cross-package fact key of a selected
// field.
func fieldFactKey(pass *Pass, sel *ast.SelectorExpr) (string, bool) {
	v, ok := pass.Info.Uses[sel.Sel].(*types.Var)
	if !ok || !v.IsField() || v.Pkg() == nil {
		return "", false
	}
	base := pass.Info.TypeOf(sel.X)
	if base == nil {
		return "", false
	}
	return FieldKey(v.Pkg().Path(), recvTypeName(base), v.Name()), true
}

// paramRootedVars seeds the set of variables append may target: the
// function's parameters and receiver, plus locals initialized
// directly from them (the `q := st.queues[i]` copy-out idiom is NOT
// included — st.queues must carry //memento:reused, which
// appendDstOK resolves through the selector instead).
func paramRootedVars(pass *Pass, d *ast.FuncDecl) map[*types.Var]bool {
	rooted := make(map[*types.Var]bool)
	add := func(fl *ast.FieldList) {
		if fl == nil {
			return
		}
		for _, f := range fl.List {
			for _, id := range f.Names {
				if v, ok := pass.Info.Defs[id].(*types.Var); ok {
					rooted[v] = true
				}
			}
		}
	}
	add(d.Recv)
	add(d.Type.Params)
	add(d.Type.Results) // named results participate in append-style APIs
	return rooted
}

// capturesVariables returns a description of the first outer variable
// a closure captures, or "" for capture-free literals.
func capturesVariables(pass *Pass, lit *ast.FuncLit) string {
	var captured string
	ast.Inspect(lit.Body, func(n ast.Node) bool {
		if captured != "" {
			return false
		}
		id, ok := n.(*ast.Ident)
		if !ok {
			return true
		}
		v, ok := pass.Info.Uses[id].(*types.Var)
		if !ok || v.IsField() {
			return true
		}
		// Package-level variables are not captured; anything declared
		// outside the literal but inside some function is.
		if v.Parent() == nil || v.Parent() == pass.Pkg.Scope() || v.Pkg() != pass.Pkg {
			return true
		}
		if v.Pos() < lit.Pos() || v.Pos() > lit.End() {
			captured = v.Name()
			return false
		}
		return true
	})
	return captured
}

// zeroSized reports whether values of t occupy no storage: boxing one
// into an interface reuses the runtime's shared zero base and does not
// allocate (struct{}, [0]T, and compositions thereof).
func zeroSized(t types.Type) bool {
	switch u := t.Underlying().(type) {
	case *types.Struct:
		for i := 0; i < u.NumFields(); i++ {
			if !zeroSized(u.Field(i).Type()) {
				return false
			}
		}
		return true
	case *types.Array:
		return u.Len() == 0 || zeroSized(u.Elem())
	}
	return false
}

func isString(t types.Type) bool {
	b, ok := t.Underlying().(*types.Basic)
	return ok && b.Info()&types.IsString != 0
}

func isUntypedNil(t types.Type) bool {
	b, ok := t.(*types.Basic)
	return ok && b.Kind() == types.UntypedNil
}

func isByteOrRuneSlice(t types.Type) bool {
	s, ok := t.Underlying().(*types.Slice)
	if !ok {
		return false
	}
	b, ok := s.Elem().Underlying().(*types.Basic)
	return ok && (b.Kind() == types.Byte || b.Kind() == types.Rune || b.Kind() == types.Uint8 || b.Kind() == types.Int32)
}

// pointerShaped reports whether values of t fit an interface's data
// word without boxing (slices do not: three words).
func pointerShaped(t types.Type) bool {
	switch u := t.Underlying().(type) {
	case *types.Pointer, *types.Chan, *types.Map, *types.Signature:
		return true
	case *types.Basic:
		return u.Kind() == types.UnsafePointer
	}
	return false
}
