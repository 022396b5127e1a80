// lockguard enforces the per-shard locking discipline: a struct field
// whose comment says "guarded by mu" may only be read or written
// while the sibling mutex named mu is held on the same base value.
//
// Lock state is tracked textually: after sl.mu.Lock() the string
// "sl.mu" is held, and an access to sl.s (s guarded by mu) requires
// exactly "sl.mu". This matches the codebase's idiom — guarded
// accesses and their Lock calls always share a base expression in the
// same function — and refuses to guess about aliasing: copying a
// locked pointer into a second name defeats the match, so either
// avoid the alias or waive the line with //memento:allow lock.
//
// Holds are established by:
//
//   - sl.mu.Lock() / sl.mu.RLock() statements; Unlock/RUnlock end the
//     hold. defer sl.mu.Unlock() does NOT end it (the hold survives
//     until return).
//   - an if whose condition is sl.mu.TryLock() (or TryRLock): the hold
//     is on the then arm. For if !sl.mu.TryLock() it is on the else
//     arm — and, when the then arm ends in continue or return, on the
//     code after the if.
//   - //memento:locked mu on a method: the receiver's mu is held at
//     entry. Calling such a method is itself checked — the caller
//     must hold recv.mu at the call site.
//   - //memento:locks p.mu on a same-package function: a call
//     lockShardRead(sl) leaves "sl.mu" held afterwards.
//
// Branches merge by intersection (a lock held only on one arm of an
// if is not held after it); loop bodies are analyzed once with the
// entry state; closure literals are analyzed with the state at their
// creation point (the sort-under-lock idiom). Guarded fields are
// unexported, so the whole analysis is intra-package and needs no
// facts.

package analyzers

import (
	"go/ast"
	"go/token"
	"go/types"
)

// LockGuard is the guarded-field discipline analyzer.
var LockGuard = &Analyzer{
	Name:     "lockguard",
	Category: "lock",
	Doc: "report accesses to \"guarded by mu\" struct fields made without " +
		"holding the named mutex on the same base expression",
	Run: runLockGuard,
}

// lockState is the set of held mutexes, keyed by rendered expression
// ("sl.mu", "h.slots[i].mu").
type lockState map[string]bool

func (s lockState) clone() lockState {
	c := make(lockState, len(s))
	for k := range s {
		c[k] = true
	}
	return c
}

// intersect keeps only locks held in both states.
func intersect(a, b lockState) lockState {
	out := make(lockState)
	for k := range a {
		if b[k] {
			out[k] = true
		}
	}
	return out
}

// lockguardPass bundles the per-package state.
type lockguardPass struct {
	pass *Pass
	// declAnn maps function objects to their annotation, for resolving
	// //memento:locked and //memento:locks at call sites.
	declAnn map[*types.Func]*FuncAnn
}

func runLockGuard(pass *Pass) {
	if len(pass.Ann.Guarded) == 0 {
		return
	}
	lp := &lockguardPass{pass: pass, declAnn: make(map[*types.Func]*FuncAnn)}
	for decl, fa := range pass.Ann.Funcs {
		if obj, ok := pass.Info.Defs[decl.Name].(*types.Func); ok {
			lp.declAnn[obj] = fa
		}
	}
	for _, f := range pass.Files {
		for _, decl := range f.Decls {
			d, ok := decl.(*ast.FuncDecl)
			if !ok || d.Body == nil {
				continue
			}
			held := make(lockState)
			if fa := pass.Ann.Funcs[d]; fa != nil && d.Recv != nil && len(d.Recv.List) > 0 && len(d.Recv.List[0].Names) > 0 {
				recv := d.Recv.List[0].Names[0].Name
				for _, mu := range fa.Locked {
					held[recv+"."+mu] = true
				}
			}
			lp.walkStmts(d.Body.List, held)
		}
	}
}

// walkStmts interprets a statement sequence, returning the lock state
// at its end. terminated reports that control cannot fall out of the
// sequence (return/branch/panic on every path taken so far).
func (lp *lockguardPass) walkStmts(stmts []ast.Stmt, held lockState) (out lockState, terminated bool) {
	for _, st := range stmts {
		var term bool
		held, term = lp.walkStmt(st, held)
		if term {
			return held, true
		}
	}
	return held, false
}

func (lp *lockguardPass) walkStmt(st ast.Stmt, held lockState) (lockState, bool) {
	switch s := st.(type) {
	case *ast.ExprStmt:
		if lp.applyLockCall(s.X, held) {
			return held, false
		}
		lp.checkExpr(s.X, held)
		lp.applyLocksAnnotations(s.X, held)
		if call, ok := ast.Unparen(s.X).(*ast.CallExpr); ok {
			if builtinName(lp.pass.Info, call) == "panic" {
				return held, true
			}
		}
		return held, false
	case *ast.AssignStmt:
		for _, e := range s.Rhs {
			lp.checkExpr(e, held)
			lp.applyLocksAnnotations(e, held)
		}
		for _, e := range s.Lhs {
			lp.checkExpr(e, held)
		}
		return held, false
	case *ast.DeferStmt:
		// defer x.mu.Unlock() keeps the hold until return; other
		// deferred calls are checked with the current state.
		if name, ok := lp.lockMethod(s.Call); ok && (name == "Unlock" || name == "RUnlock") {
			return held, false
		}
		lp.checkExpr(s.Call, held)
		return held, false
	case *ast.ReturnStmt:
		for _, e := range s.Results {
			lp.checkExpr(e, held)
		}
		return held, true
	case *ast.BranchStmt:
		return held, true
	case *ast.BlockStmt:
		return lp.walkStmts(s.List, held)
	case *ast.IfStmt:
		if s.Init != nil {
			held, _ = lp.walkStmt(s.Init, held)
		}
		lp.checkExpr(s.Cond, held)
		thenIn, elseIn := held.clone(), held.clone()
		if key, onThen := lp.tryLockCond(s.Cond); key != "" {
			if onThen {
				thenIn[key] = true
			} else {
				elseIn[key] = true
			}
		}
		thenOut, thenTerm := lp.walkStmts(s.Body.List, thenIn)
		elseOut, elseTerm := elseIn, false
		if s.Else != nil {
			elseOut, elseTerm = lp.walkStmt(s.Else, elseIn)
		}
		switch {
		case thenTerm && elseTerm:
			return held, true
		case thenTerm:
			return elseOut, false
		case elseTerm:
			return thenOut, false
		default:
			return intersect(thenOut, elseOut), false
		}
	case *ast.ForStmt:
		if s.Init != nil {
			held, _ = lp.walkStmt(s.Init, held)
		}
		if s.Cond != nil {
			lp.checkExpr(s.Cond, held)
		}
		bodyOut, _ := lp.walkStmts(s.Body.List, held.clone())
		if s.Post != nil {
			lp.walkStmt(s.Post, bodyOut)
		}
		if s.Cond == nil && !hasBreak(s.Body) {
			// for {} without break never falls through.
			return intersect(held, bodyOut), false
		}
		return intersect(held, bodyOut), false
	case *ast.RangeStmt:
		lp.checkExpr(s.X, held)
		bodyOut, _ := lp.walkStmts(s.Body.List, held.clone())
		return intersect(held, bodyOut), false
	case *ast.SwitchStmt:
		if s.Init != nil {
			held, _ = lp.walkStmt(s.Init, held)
		}
		if s.Tag != nil {
			lp.checkExpr(s.Tag, held)
		}
		return lp.walkCases(s.Body, held, hasDefaultCase(s.Body))
	case *ast.TypeSwitchStmt:
		if s.Init != nil {
			held, _ = lp.walkStmt(s.Init, held)
		}
		return lp.walkCases(s.Body, held, hasDefaultCase(s.Body))
	case *ast.SelectStmt:
		return lp.walkCases(s.Body, held, true)
	case *ast.LabeledStmt:
		return lp.walkStmt(s.Stmt, held)
	case *ast.GoStmt:
		// The goroutine runs concurrently: its body starts with NO
		// locks held, whatever the spawner holds.
		lp.checkExpr(s.Call.Fun, make(lockState))
		for _, a := range s.Call.Args {
			lp.checkExpr(a, make(lockState))
		}
		return held, false
	case *ast.IncDecStmt:
		lp.checkExpr(s.X, held)
		return held, false
	case *ast.SendStmt:
		lp.checkExpr(s.Chan, held)
		lp.checkExpr(s.Value, held)
		return held, false
	case *ast.DeclStmt:
		if gd, ok := s.Decl.(*ast.GenDecl); ok {
			for _, spec := range gd.Specs {
				if vs, ok := spec.(*ast.ValueSpec); ok {
					for _, v := range vs.Values {
						lp.checkExpr(v, held)
					}
				}
			}
		}
		return held, false
	default:
		return held, false
	}
}

// walkCases merges switch/select case bodies by intersection;
// exhaustive=false (no default) keeps the entry state in the merge.
func (lp *lockguardPass) walkCases(body *ast.BlockStmt, held lockState, exhaustive bool) (lockState, bool) {
	out := lockState(nil)
	allTerm := true
	for _, cl := range body.List {
		var stmts []ast.Stmt
		switch c := cl.(type) {
		case *ast.CaseClause:
			for _, e := range c.List {
				lp.checkExpr(e, held)
			}
			stmts = c.Body
		case *ast.CommClause:
			if c.Comm != nil {
				lp.walkStmt(c.Comm, held.clone())
			}
			stmts = c.Body
		}
		caseOut, term := lp.walkStmts(stmts, held.clone())
		if term {
			continue
		}
		allTerm = false
		if out == nil {
			out = caseOut
		} else {
			out = intersect(out, caseOut)
		}
	}
	if !exhaustive || out == nil {
		out2 := held.clone()
		if out != nil {
			out2 = intersect(out2, out)
		}
		return out2, false
	}
	if allTerm && exhaustive {
		return held, true
	}
	return out, false
}

// applyLockCall recognizes x.mu.Lock()/RLock()/Unlock()/RUnlock()
// statements and mutates held; returns true when the expression was a
// lock operation.
func (lp *lockguardPass) applyLockCall(e ast.Expr, held lockState) bool {
	call, ok := ast.Unparen(e).(*ast.CallExpr)
	if !ok {
		return false
	}
	name, ok := lp.lockMethod(call)
	if !ok {
		return false
	}
	sel := ast.Unparen(call.Fun).(*ast.SelectorExpr)
	key := exprString(sel.X)
	if key == "" {
		return false
	}
	switch name {
	case "Lock", "RLock":
		held[key] = true
	case "Unlock", "RUnlock":
		delete(held, key)
	}
	return true
}

// tryLockCond recognizes an if condition x.mu.TryLock() or
// x.mu.TryRLock(), possibly negated, and returns the mutex key and
// whether the lock is held on the then arm (false: on the else arm).
// key is "" for any other condition.
func (lp *lockguardPass) tryLockCond(cond ast.Expr) (key string, onThen bool) {
	cond, onThen = ast.Unparen(cond), true
	if not, ok := cond.(*ast.UnaryExpr); ok && not.Op == token.NOT {
		cond, onThen = ast.Unparen(not.X), false
	}
	call, ok := cond.(*ast.CallExpr)
	if !ok {
		return "", false
	}
	if name, ok := lp.lockMethod(call); !ok || (name != "TryLock" && name != "TryRLock") {
		return "", false
	}
	return exprString(ast.Unparen(call.Fun).(*ast.SelectorExpr).X), onThen
}

// lockMethod reports whether call is a method call named
// Lock/RLock/TryLock/TryRLock/Unlock/RUnlock on a sync mutex value.
func (lp *lockguardPass) lockMethod(call *ast.CallExpr) (string, bool) {
	sel, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr)
	if !ok {
		return "", false
	}
	switch sel.Sel.Name {
	case "Lock", "RLock", "TryLock", "TryRLock", "Unlock", "RUnlock":
	default:
		return "", false
	}
	fn, ok := lp.pass.Info.Uses[sel.Sel].(*types.Func)
	if !ok || fn.Pkg() == nil || fn.Pkg().Path() != "sync" {
		return "", false
	}
	return sel.Sel.Name, true
}

// applyLocksAnnotations handles calls to //memento:locks p.mu
// functions: after the call, the argument's mutex is held.
func (lp *lockguardPass) applyLocksAnnotations(e ast.Expr, held lockState) {
	ast.Inspect(e, func(n ast.Node) bool {
		call, ok := n.(*ast.CallExpr)
		if !ok {
			return true
		}
		fn := funcObj(lp.pass.Info, call)
		if fn == nil {
			return true
		}
		fa := lp.declAnn[fn.Origin()]
		if fa == nil || len(fa.Locks) == 0 {
			return true
		}
		decl := lp.declFor(fn.Origin())
		if decl == nil {
			return true
		}
		for _, spec := range fa.Locks {
			if idx := paramIndex(decl, spec.Param); idx >= 0 && idx < len(call.Args) {
				if key := exprString(call.Args[idx]); key != "" {
					held[key+"."+spec.Field] = true
				}
			}
		}
		return true
	})
}

// declFor finds the FuncDecl of a same-package function object.
func (lp *lockguardPass) declFor(fn *types.Func) *ast.FuncDecl {
	for decl := range lp.pass.Ann.Funcs {
		if obj, ok := lp.pass.Info.Defs[decl.Name].(*types.Func); ok && obj == fn {
			return decl
		}
	}
	return nil
}

// paramIndex returns the positional index of a named parameter.
func paramIndex(d *ast.FuncDecl, name string) int {
	i := 0
	if d.Type.Params == nil {
		return -1
	}
	for _, f := range d.Type.Params.List {
		for _, id := range f.Names {
			if id.Name == name {
				return i
			}
			i++
		}
		if len(f.Names) == 0 {
			i++
		}
	}
	return -1
}

// checkExpr inspects an expression for guarded-field accesses and
// calls to //memento:locked methods, under the given lock state.
// Closure literals are analyzed with the state at their creation.
func (lp *lockguardPass) checkExpr(e ast.Expr, held lockState) {
	if e == nil {
		return
	}
	ast.Inspect(e, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.FuncLit:
			lp.walkStmts(n.Body.List, held.clone())
			return false
		case *ast.CallExpr:
			lp.checkLockedCall(n, held)
			return true
		case *ast.SelectorExpr:
			lp.checkGuardedAccess(n, held)
			return true
		}
		return true
	})
}

// checkLockedCall verifies that calls to //memento:locked methods are
// made with the receiver's mutex held.
func (lp *lockguardPass) checkLockedCall(call *ast.CallExpr, held lockState) {
	fn := funcObj(lp.pass.Info, call)
	if fn == nil {
		return
	}
	fa := lp.declAnn[fn.Origin()]
	if fa == nil || len(fa.Locked) == 0 {
		return
	}
	sel, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr)
	if !ok {
		return
	}
	base := exprString(sel.X)
	for _, mu := range fa.Locked {
		want := base + "." + mu
		if base == "" || !held[want] {
			pos := lp.pass.Fset.Position(call.Pos())
			if lp.pass.Ann.waive("lock", pos) {
				continue
			}
			lp.pass.reportf("lockguard", call.Pos(),
				"call to %s requires holding %s (//memento:locked %s)", fn.Name(), want, mu)
		}
	}
}

// checkGuardedAccess verifies one selector against the guarded-field
// table.
func (lp *lockguardPass) checkGuardedAccess(sel *ast.SelectorExpr, held lockState) {
	v, ok := lp.pass.Info.Uses[sel.Sel].(*types.Var)
	if !ok || !v.IsField() {
		return
	}
	// Origin maps a field of an instantiated generic type back to the
	// declaration-site Var the annotation table is keyed by.
	guard, ok := lp.pass.Ann.Guarded[v.Origin()]
	if !ok {
		return
	}
	base := exprString(sel.X)
	want := base + "." + guard
	if base != "" && held[want] {
		return
	}
	pos := lp.pass.Fset.Position(sel.Sel.Pos())
	if lp.pass.Ann.waive("lock", pos) {
		return
	}
	lp.pass.reportf("lockguard", sel.Sel.Pos(),
		"access to %s (guarded by %s) without holding %s", sel.Sel.Name, guard, want)
}

// exprString renders the base-expression chains lock matching relies
// on; "" means unmatchable (the access will be reported unless the
// exact textual base was locked).
func exprString(e ast.Expr) string {
	switch e := ast.Unparen(e).(type) {
	case *ast.Ident:
		return e.Name
	case *ast.SelectorExpr:
		base := exprString(e.X)
		if base == "" {
			return ""
		}
		return base + "." + e.Sel.Name
	case *ast.IndexExpr:
		base := exprString(e.X)
		idx := exprString(e.Index)
		if base == "" || idx == "" {
			return ""
		}
		return base + "[" + idx + "]"
	case *ast.StarExpr:
		return exprString(e.X)
	case *ast.UnaryExpr:
		if e.Op == token.AND {
			return exprString(e.X)
		}
		return ""
	case *ast.BasicLit:
		return e.Value
	default:
		return ""
	}
}

// hasBreak reports whether a block contains a break statement at its
// own loop level (nested loops' breaks do not count; good enough for
// the for{} fall-through heuristic).
func hasBreak(body *ast.BlockStmt) bool {
	found := false
	ast.Inspect(body, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.ForStmt, *ast.RangeStmt, *ast.SwitchStmt, *ast.TypeSwitchStmt, *ast.SelectStmt:
			return false
		case *ast.BranchStmt:
			if n.Tok == token.BREAK {
				found = true
			}
		}
		return !found
	})
	return found
}

// hasDefaultCase reports whether a switch body has a default clause.
func hasDefaultCase(body *ast.BlockStmt) bool {
	for _, cl := range body.List {
		if c, ok := cl.(*ast.CaseClause); ok && c.List == nil {
			return true
		}
	}
	return false
}
