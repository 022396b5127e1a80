// driver.go runs the whole suite over a module and owns the policy
// every caller (mementovet, the tests) shares: annotation parse errors
// are diagnostics, waivers suppress findings in category, and an
// unused waiver is itself a finding — a suppression must pay rent.

package analyzers

import (
	"sort"

	"go/ast"
	"go/token"
	"go/types"
)

// A Report is the outcome of analyzing a module.
type Report struct {
	// Units are the analyzed packages, dependencies first.
	Units      []*Unit
	ModulePath string
	// Diagnostics are sorted by position, then message.
	Diagnostics []Diagnostic
	// Waivers lists every //memento:allow in the module, used or not,
	// sorted by position (mementovet -json surfaces them so
	// suppressions stay visible).
	Waivers []*Waiver
}

// Check loads patterns in dir (see Load) and runs the suite over every
// module package in dependency order, so each package reads the facts
// its dependencies exported.
func Check(dir string, patterns []string) (*Report, error) {
	units, modulePath, err := Load(dir, patterns)
	if err != nil {
		return nil, err
	}
	r := &Report{Units: units, ModulePath: modulePath}
	store := &FactStore{Funcs: make(map[string]FuncFact), Fields: make(map[string]FieldFact)}
	for _, u := range units {
		r.analyze(u, store)
	}
	sort.Slice(r.Waivers, func(i, j int) bool {
		a, b := r.Waivers[i].Pos, r.Waivers[j].Pos
		if a.Filename != b.Filename {
			return a.Filename < b.Filename
		}
		return a.Line < b.Line
	})
	sort.Slice(r.Diagnostics, func(i, j int) bool {
		a, b := r.Diagnostics[i].Pos, r.Diagnostics[j].Pos
		if a.Filename != b.Filename {
			return a.Filename < b.Filename
		}
		if a.Line != b.Line {
			return a.Line < b.Line
		}
		return r.Diagnostics[i].Message < r.Diagnostics[j].Message
	})
	return r, nil
}

// analyze parses one package's annotations, runs every analyzer over
// it, and adds its findings and waivers to r.
func (r *Report) analyze(u *Unit, store *FactStore) {
	ann := ParseAnnotations(u.Fset, u.Files, u.Info)
	r.Diagnostics = append(r.Diagnostics, ann.Errors...)
	pass := &Pass{
		Fset:       u.Fset,
		Files:      u.Files,
		Pkg:        u.Pkg,
		Info:       u.Info,
		ModulePath: r.ModulePath,
		Ann:        ann,
		Facts:      store,
		Report: func(d Diagnostic) {
			r.Diagnostics = append(r.Diagnostics, d)
		},
	}

	// Export //memento:reused field annotations as facts before any
	// analyzer runs, so cross-package append destinations resolve.
	exportFieldFacts(pass)

	for _, a := range All() {
		a.Run(pass)
	}

	for _, byLine := range ann.Waivers {
		for _, w := range byLine {
			r.Waivers = append(r.Waivers, w)
			if !w.Used {
				r.Diagnostics = append(r.Diagnostics, Diagnostic{
					Pos:      w.Pos,
					Analyzer: "annot",
					Message:  "unused //memento:allow " + w.Category + " waiver (reason: " + w.Reason + ") — remove it or re-justify",
				})
			}
		}
	}
}

// exportFieldFacts publishes the package's //memento:reused fields so
// dependent packages' noalloc runs can accept appends to them.
func exportFieldFacts(pass *Pass) {
	for v, reused := range pass.Ann.Reused {
		if !reused {
			continue
		}
		owner := fieldOwnerName(pass, v)
		if owner == "" {
			continue
		}
		pass.Facts.Fields[FieldKey(pass.Pkg.Path(), owner, v.Name())] = FieldFact{Reused: true}
	}
}

// fieldOwnerName finds the struct type name declaring a field, by
// scanning the package's type declarations.
func fieldOwnerName(pass *Pass, field *types.Var) string {
	for _, f := range pass.Files {
		for _, decl := range f.Decls {
			gd, ok := decl.(*ast.GenDecl)
			if !ok || gd.Tok != token.TYPE {
				continue
			}
			for _, spec := range gd.Specs {
				ts, ok := spec.(*ast.TypeSpec)
				if !ok {
					continue
				}
				st, ok := ts.Type.(*ast.StructType)
				if !ok {
					continue
				}
				for _, fl := range st.Fields.List {
					for _, id := range fl.Names {
						if pass.Info.Defs[id] == field {
							return ts.Name.Name
						}
					}
				}
			}
		}
	}
	return ""
}
