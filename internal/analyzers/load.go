// load.go is the driver's package loader. It shells out to
// `go list -export -deps -json`, which works fully offline (export
// data comes from the build cache), parses the module's own packages
// from source with comments (annotations live in comments), and
// imports everything else from compiled export data — the same split
// the analyzers make between "analyzed" and "opaque" code.

package analyzers

import (
	"encoding/json"
	"fmt"
	"go/ast"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
)

// A Unit is one loaded, type-checked module package ready for
// analysis, in dependency order.
type Unit struct {
	ImportPath string
	Fset       *token.FileSet
	Files      []*ast.File
	Pkg        *types.Package
	Info       *types.Info
}

// listedPackage is the subset of `go list -json` output we consume.
type listedPackage struct {
	ImportPath string
	Dir        string
	Name       string
	GoFiles    []string
	Standard   bool
	Export     string
	Module     *struct{ Path string }
	Error      *struct{ Err string }
}

// Load lists patterns in dir and returns the module's packages in
// dependency order, plus the module path.
func Load(dir string, patterns []string) ([]*Unit, string, error) {
	args := append([]string{"list", "-export", "-deps", "-json"}, patterns...)
	cmd := exec.Command("go", args...)
	cmd.Dir = dir
	cmd.Stderr = os.Stderr
	out, err := cmd.Output()
	if err != nil {
		return nil, "", fmt.Errorf("go list: %w", err)
	}

	// -deps emits dependencies before dependents, which is exactly the
	// fact-flow order the analyzers need.
	var ordered []*listedPackage
	byPath := make(map[string]*listedPackage)
	dec := json.NewDecoder(strings.NewReader(string(out)))
	for {
		p := new(listedPackage)
		if err := dec.Decode(p); err == io.EOF {
			break
		} else if err != nil {
			return nil, "", fmt.Errorf("go list output: %w", err)
		}
		ordered = append(ordered, p)
		byPath[p.ImportPath] = p
	}

	modulePath, err := currentModule(dir)
	if err != nil {
		return nil, "", err
	}

	fset := token.NewFileSet()
	exportLookup := func(path string) (io.ReadCloser, error) {
		p := byPath[path]
		if p == nil || p.Export == "" {
			return nil, fmt.Errorf("no export data for %q", path)
		}
		return os.Open(p.Export)
	}
	imp := importer.ForCompiler(fset, "gc", exportLookup)

	var units []*Unit
	for _, p := range ordered {
		if p.Error != nil {
			return nil, "", fmt.Errorf("%s: %s", p.ImportPath, p.Error.Err)
		}
		if p.Module == nil || p.Module.Path != modulePath || p.Standard {
			continue
		}
		unit, err := parseAndCheck(fset, p, imp)
		if err != nil {
			return nil, "", err
		}
		units = append(units, unit)
	}
	return units, modulePath, nil
}

// currentModule reads the module path of dir.
func currentModule(dir string) (string, error) {
	cmd := exec.Command("go", "list", "-m")
	cmd.Dir = dir
	out, err := cmd.Output()
	if err != nil {
		return "", fmt.Errorf("go list -m: %w", err)
	}
	return strings.TrimSpace(string(out)), nil
}

// parseAndCheck loads one module package from source.
func parseAndCheck(fset *token.FileSet, p *listedPackage, imp types.Importer) (*Unit, error) {
	var files []*ast.File
	for _, name := range p.GoFiles {
		path := name
		if !filepath.IsAbs(path) {
			path = filepath.Join(p.Dir, name)
		}
		f, err := parser.ParseFile(fset, path, nil, parser.ParseComments|parser.SkipObjectResolution)
		if err != nil {
			return nil, err
		}
		files = append(files, f)
	}
	info := &types.Info{
		Types:      make(map[ast.Expr]types.TypeAndValue),
		Defs:       make(map[*ast.Ident]types.Object),
		Uses:       make(map[*ast.Ident]types.Object),
		Selections: make(map[*ast.SelectorExpr]*types.Selection),
		Implicits:  make(map[ast.Node]types.Object),
		Instances:  make(map[*ast.Ident]types.Instance),
		Scopes:     make(map[ast.Node]*types.Scope),
	}
	conf := types.Config{Importer: imp}
	pkg, err := conf.Check(p.ImportPath, fset, files, info)
	if err != nil {
		return nil, fmt.Errorf("typecheck %s: %w", p.ImportPath, err)
	}
	return &Unit{ImportPath: p.ImportPath, Fset: fset, Files: files, Pkg: pkg, Info: info}, nil
}
