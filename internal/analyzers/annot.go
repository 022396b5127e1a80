// Annotation grammar. All machine-readable markers share the
// //memento: prefix (no space — directive comments are hidden from
// godoc) and one line each:
//
//	//memento:noalloc
//	    Function-level. The function must be allocation-free in
//	    steady state, transitively through module callees.
//	//memento:deterministic
//	    Package-level: the package must not read wall clocks or
//	    global randomness, nor iterate maps. Also accepted on a
//	    single function.
//	//memento:locked mu
//	    Function-level: callers hold the receiver's mutex field "mu"
//	    for the duration of the call, so guarded-field accesses
//	    inside need no Lock of their own.
//	//memento:locks p.mu
//	    Function-level: the function acquires parameter p's mutex
//	    field "mu" and returns holding it; lockguard treats a call as
//	    a Lock of the argument.
//	//memento:reused
//	    Field-level (doc or trailing comment): the slice buffer is
//	    pooled/reused, so noalloc accepts amortized append growth.
//	//memento:allow <category> "reason"
//	    Line-level waiver: suppresses <category> (alloc, lock, det)
//	    diagnostics on the comment's line and the next line. The
//	    quoted reason is mandatory; unused waivers are diagnosed.
//
// Guarded fields use the human idiom the codebase already speaks: a
// field whose doc or trailing comment contains "guarded by <field>"
// is protected by the named sibling mutex field.
//
// ParseAnnotations is strict: anything starting //memento: that does
// not parse, or that sits where no check reads it (a function-level
// directive outside a function's doc comment), is a diagnostic, never
// silently ignored — a typo like //memento:noaloc, or a declaration
// slipped between a directive and its function, must fail the build,
// not disable a check.

package analyzers

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"regexp"
	"strconv"
	"strings"
)

// LockSpec names a parameter and the mutex field acquired on it.
type LockSpec struct {
	Param string
	Field string
}

// FuncAnn is the parsed annotation set of one function.
type FuncAnn struct {
	NoAlloc       bool
	Deterministic bool
	Locked        []string   // receiver mutex fields held at entry
	Locks         []LockSpec // param mutexes held at return
}

// Waiver is one //memento:allow marker.
type Waiver struct {
	Pos      token.Position
	Category string
	Reason   string
	Used     bool
}

// Annotations is the parsed annotation state of one package.
type Annotations struct {
	Funcs map[*ast.FuncDecl]*FuncAnn

	// PkgDeterministic is the package-level marker.
	PkgDeterministic bool

	// Reused and Guarded map field objects to their markers; Guarded
	// values name the protecting sibling mutex field.
	Reused  map[*types.Var]bool
	Guarded map[*types.Var]string

	// Waivers indexes //memento:allow markers by file and line; one
	// waiver covers its own line and the next.
	Waivers map[string]map[int]*Waiver

	// Errors are malformed //memento: comments (reported by the
	// driver under the "annot" name so typos fail loudly).
	Errors []Diagnostic
}

var guardedRe = regexp.MustCompile(`guarded by (\p{L}[\p{L}\p{N}_]*)`)

// ParseAnnotations extracts the package's annotation state. It is
// called once per package by the driver.
func ParseAnnotations(fset *token.FileSet, files []*ast.File, info *types.Info) *Annotations {
	ann := &Annotations{
		Funcs:   make(map[*ast.FuncDecl]*FuncAnn),
		Reused:  make(map[*types.Var]bool),
		Guarded: make(map[*types.Var]string),
		Waivers: make(map[string]map[int]*Waiver),
	}
	for _, f := range files {
		// Directives are read only from a function's or the package's
		// doc comment (parseFuncDoc, parsePackageMarker).
		docs := make(map[*ast.Comment]bool)
		if f.Doc != nil {
			for _, c := range f.Doc.List {
				docs[c] = true
			}
		}
		for _, decl := range f.Decls {
			if d, ok := decl.(*ast.FuncDecl); ok && d.Doc != nil {
				for _, c := range d.Doc.List {
					docs[c] = true
				}
			}
		}
		// Waivers and malformed-marker detection scan every comment
		// in the file, wherever it hangs in the AST. A //memento:reused
		// outside a doc comment must be claimed by a struct field
		// (parseFields), or it marks nothing.
		var strays []*ast.Comment
		for _, cg := range f.Comments {
			for _, c := range cg.List {
				ann.parseComment(fset, c, docs[c])
				if verb, _, _ := directive(c); verb == "reused" && !docs[c] {
					strays = append(strays, c)
				}
			}
		}
		claimed := make(map[*ast.Comment]bool)
		// Package-level markers live in the package doc block.
		if f.Doc != nil {
			for _, c := range f.Doc.List {
				ann.parsePackageMarker(fset, c)
			}
		}
		for _, decl := range f.Decls {
			switch d := decl.(type) {
			case *ast.FuncDecl:
				if fa := ann.parseFuncDoc(fset, d); fa != nil {
					ann.Funcs[d] = fa
				}
			case *ast.GenDecl:
				if d.Tok == token.TYPE {
					for _, spec := range d.Specs {
						ts, ok := spec.(*ast.TypeSpec)
						if !ok {
							continue
						}
						if st, ok := ts.Type.(*ast.StructType); ok {
							ann.parseFields(info, st, claimed)
						}
					}
				}
			}
		}
		for _, c := range strays {
			if !claimed[c] {
				ann.Errors = append(ann.Errors, Diagnostic{Pos: fset.Position(c.Pos()), Analyzer: "annot",
					Message: "//memento:reused marks nothing here: it belongs on a named struct field"})
			}
		}
	}
	return ann
}

// directive splits a //memento: comment into verb and argument rest;
// ok is false for comments that are not memento directives at all.
func directive(c *ast.Comment) (verb, rest string, ok bool) {
	text := c.Text
	if !strings.HasPrefix(text, "//") {
		return "", "", false
	}
	body := text[2:]
	if !strings.HasPrefix(body, "memento:") {
		// A spaced variant ("// memento:...") is a near-miss typo the
		// meta check must catch, so classify it as a directive too.
		trimmed := strings.TrimLeft(body, " \t")
		if !strings.HasPrefix(trimmed, "memento:") {
			return "", "", false
		}
		return "", "malformed spacing", true
	}
	body = body[len("memento:"):]
	verb, rest, _ = strings.Cut(body, " ")
	return verb, strings.TrimSpace(rest), true
}

// parseComment handles waivers and flags malformed directives; inDoc
// reports whether the comment sits in a function's or the package's
// doc comment.
func (ann *Annotations) parseComment(fset *token.FileSet, c *ast.Comment, inDoc bool) {
	verb, rest, ok := directive(c)
	if !ok {
		return
	}
	pos := fset.Position(c.Pos())
	fail := func(format string, args ...any) {
		ann.Errors = append(ann.Errors, Diagnostic{
			Pos:      pos,
			Analyzer: "annot",
			Message:  fmt.Sprintf(format, args...),
		})
	}
	switch verb {
	case "":
		fail("malformed //memento: directive (no space allowed before \"memento:\")")
	case "allow":
		cat, reason, ok := parseAllow(rest)
		if !ok {
			fail(`malformed waiver %q: want //memento:allow <category> "reason"`, c.Text)
			return
		}
		if !isCategory(cat) {
			fail("unknown waiver category %q (want alloc, lock or det)", cat)
			return
		}
		if reason == "" {
			fail("waiver for %q needs a non-empty reason string", cat)
			return
		}
		byLine := ann.Waivers[pos.Filename]
		if byLine == nil {
			byLine = make(map[int]*Waiver)
			ann.Waivers[pos.Filename] = byLine
		}
		byLine[pos.Line] = &Waiver{Pos: pos, Category: cat, Reason: reason}
	case "noalloc", "deterministic", "locked", "locks":
		// Arguments are validated in context (parseFuncDoc /
		// parsePackageMarker); here we catch a directive no check
		// reads.
		if !inDoc {
			fail("//memento:%s is outside any function or package doc comment, so no check reads it", verb)
		}
	case "reused":
		// Validated in context (parseFuncDoc, parseFields, and the
		// stray check in ParseAnnotations).
	default:
		fail("unknown //memento: directive %q", verb)
	}
}

// isCategory reports whether cat is an analyzer's waiver category.
func isCategory(cat string) bool {
	for _, a := range All() {
		if a.Category == cat {
			return true
		}
	}
	return false
}

// parseAllow splits `<category> "reason"`.
func parseAllow(rest string) (cat, reason string, ok bool) {
	cat, quoted, found := strings.Cut(rest, " ")
	if !found || cat == "" {
		return "", "", false
	}
	quoted = strings.TrimSpace(quoted)
	reason, err := strconv.Unquote(quoted)
	if err != nil {
		return "", "", false
	}
	return cat, reason, true
}

// parsePackageMarker handles directives inside the package doc block.
func (ann *Annotations) parsePackageMarker(fset *token.FileSet, c *ast.Comment) {
	verb, rest, ok := directive(c)
	if !ok || verb == "" || verb == "allow" {
		return
	}
	pos := fset.Position(c.Pos())
	switch verb {
	case "deterministic":
		if rest != "" {
			ann.Errors = append(ann.Errors, Diagnostic{Pos: pos, Analyzer: "annot",
				Message: "//memento:deterministic takes no arguments"})
			return
		}
		ann.PkgDeterministic = true
	case "noalloc", "locked", "locks", "reused":
		ann.Errors = append(ann.Errors, Diagnostic{Pos: pos, Analyzer: "annot",
			Message: fmt.Sprintf("//memento:%s is not a package-level directive", verb)})
	} // an unknown verb was reported by parseComment
}

// parseFuncDoc extracts a function's annotation set from its doc
// comment; nil when unannotated.
func (ann *Annotations) parseFuncDoc(fset *token.FileSet, d *ast.FuncDecl) *FuncAnn {
	if d.Doc == nil {
		return nil
	}
	var fa *FuncAnn
	get := func() *FuncAnn {
		if fa == nil {
			fa = &FuncAnn{}
		}
		return fa
	}
	for _, c := range d.Doc.List {
		verb, rest, ok := directive(c)
		if !ok || verb == "" || verb == "allow" {
			continue
		}
		pos := fset.Position(c.Pos())
		fail := func(format string, args ...any) {
			ann.Errors = append(ann.Errors, Diagnostic{Pos: pos, Analyzer: "annot",
				Message: fmt.Sprintf(format, args...)})
		}
		switch verb {
		case "noalloc":
			if rest != "" {
				fail("//memento:noalloc takes no arguments")
				continue
			}
			get().NoAlloc = true
		case "deterministic":
			if rest != "" {
				fail("//memento:deterministic takes no arguments")
				continue
			}
			get().Deterministic = true
		case "locked":
			if rest == "" || strings.ContainsAny(rest, ". \t") {
				fail("//memento:locked wants a single receiver mutex field name")
				continue
			}
			if d.Recv == nil {
				fail("//memento:locked is only meaningful on methods")
				continue
			}
			get().Locked = append(get().Locked, rest)
		case "locks":
			param, field, found := strings.Cut(rest, ".")
			if !found || param == "" || field == "" || strings.ContainsAny(field, ". \t") {
				fail("//memento:locks wants <param>.<mutexField>")
				continue
			}
			if !hasParam(d, param) {
				fail("//memento:locks names unknown parameter %q", param)
				continue
			}
			get().Locks = append(get().Locks, LockSpec{Param: param, Field: field})
		case "reused":
			fail("//memento:reused belongs on a struct field, not a function")
		}
	}
	return fa
}

// hasParam reports whether the declaration has a parameter (or
// receiver) with the given name.
func hasParam(d *ast.FuncDecl, name string) bool {
	check := func(fl *ast.FieldList) bool {
		if fl == nil {
			return false
		}
		for _, f := range fl.List {
			for _, id := range f.Names {
				if id.Name == name {
					return true
				}
			}
		}
		return false
	}
	return check(d.Type.Params) || check(d.Recv)
}

// parseFields extracts field-level markers: //memento:reused and the
// "guarded by mu" idiom, from field doc or trailing comments. It adds
// the //memento:reused comments a named field takes to claimed.
func (ann *Annotations) parseFields(info *types.Info, st *ast.StructType, claimed map[*ast.Comment]bool) {
	for _, field := range st.Fields.List {
		// CommentGroup.Text() strips directive-style comments — which
		// is exactly what //memento: markers are — so walk the raw
		// comment list instead.
		text := ""
		for _, cg := range [2]*ast.CommentGroup{field.Doc, field.Comment} {
			if cg == nil {
				continue
			}
			for _, c := range cg.List {
				text += c.Text + "\n"
				if verb, _, _ := directive(c); verb == "reused" && len(field.Names) > 0 {
					claimed[c] = true
				}
			}
		}
		if text == "" {
			continue
		}
		reused := strings.Contains(text, "memento:reused")
		var guard string
		if m := guardedRe.FindStringSubmatch(text); m != nil {
			guard = m[1]
		}
		if !reused && guard == "" {
			continue
		}
		for _, id := range field.Names {
			obj, ok := info.Defs[id].(*types.Var)
			if !ok {
				continue
			}
			if reused {
				ann.Reused[obj] = true
			}
			if guard != "" {
				ann.Guarded[obj] = guard
			}
		}
	}
}

// waive consumes a waiver covering pos for the given category,
// returning true when the diagnostic is suppressed. A waiver on line
// L covers lines L and L+1, so it works both as a trailing comment
// and as a standalone line above the offending statement.
func (ann *Annotations) waive(category string, pos token.Position) bool {
	byLine := ann.Waivers[pos.Filename]
	if byLine == nil {
		return false
	}
	for _, line := range [2]int{pos.Line, pos.Line - 1} {
		if w := byLine[line]; w != nil && w.Category == category {
			w.Used = true
			return true
		}
	}
	return false
}
