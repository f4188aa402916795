package srlb_test

import (
	"fmt"
	"go/ast"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"io/fs"
	"maps"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"sync"
	"testing"
)

// configAllowed are the config fields that may have no writer besides
// their own default, each with the reason it stays a field.
var configAllowed = map[string]string{
	// Values the program computes, written behind an if on the field
	// that the scan reads as a default.
	"feedback.Config.Horizon":      "experiments' replay sets it to the run's horizon when it is not positive",
	"testbed.PoolSpec.Server":      "MultiServiceWorkload gives a pool the cluster's server when its Workers is zero",
	"testbed.PoolSpec.Policy":      "MultiServiceWorkload gives a pool the policy under test when it is nil",
	"wiki.CostModel.CacheCapacity": "ScaledTo sets it to a third of the day's page count when it is zero",
	// The hostile network of ROADMAP item 4(d) varies these.
	"netsim.Config.JitterFrac":      "item 4(d)'s reorder mode needs per-packet jitter",
	"netsim.Config.VerifyChecksums": "item 4(d)'s corrupt mode sends faulted packets through the checked codec",
	// Set only by tests; making each a constant is open under ROADMAP
	// item 5. All six sit on the benchmark's path.
	"feedback.Config.Alpha":      "test-only, open under item 5",
	"flowtable.Config.FinLinger": "test-only, open under item 5",
	"flowtable.Config.IdleTTL":   "test-only, open under item 5",
	"netsim.Config.Latency":      "test-only, open under item 5",
	"testbed.GenSpec.Events":     "test-only, open under item 5",
	"testbed.Topology.Flows":     "test-only, open under item 5",
}

// configTypes are the settings structs whose names do not end in Config
// or Spec, as "<package>.<Type>".
var configTypes = map[string]bool{
	"experiments.Adaptive":             true,
	"experiments.Base":                 true,
	"experiments.Sweep":                true,
	"experiments.Scenario":             true,
	"experiments.PoissonService":       true,
	"experiments.BurstyService":        true,
	"experiments.WikiService":          true,
	"experiments.MultiServiceWorkload": true,
	"experiments.PoissonHooks":         true,
	"testbed.Topology":                 true,
	"testbed.Event":                    true,
	"testbed.Generator":                true,
	"wiki.CostModel":                   true,
	"livenet.Network":                  true,
}

// goPackage is one package's files in one directory: the non-test files
// with the in-package tests, or the external test package.
type goPackage struct {
	path  string
	files []*ast.File
	types *types.Package
}

// repoPackages parses every Go file of the repo, bench/ and examples/
// included, by absolute path, so positions match the importer's.
func repoPackages(fset *token.FileSet) ([]*goPackage, error) {
	root, err := os.Getwd()
	if err != nil {
		return nil, err
	}
	byKey := map[string]*goPackage{}
	var keys []string
	err = filepath.WalkDir(root, func(p string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			if p != root && (strings.HasPrefix(d.Name(), ".") || d.Name() == "testdata") {
				return filepath.SkipDir
			}
			return nil
		}
		if !strings.HasSuffix(p, ".go") {
			return nil
		}
		f, err := parser.ParseFile(fset, p, nil, parser.SkipObjectResolution)
		if err != nil {
			return err
		}
		dir := filepath.Dir(p)
		key := dir + " " + f.Name.Name
		if byKey[key] == nil {
			rel, _ := filepath.Rel(root, dir)
			byKey[key] = &goPackage{path: filepath.ToSlash(filepath.Join("srlb", rel))}
			keys = append(keys, key)
		}
		byKey[key].files = append(byKey[key].files, f)
		return nil
	})
	sort.Strings(keys)
	pkgs := make([]*goPackage, len(keys))
	for i, k := range keys {
		pkgs[i] = byKey[k]
	}
	return pkgs, err
}

// typedRepo is every package of the repo, type-checked from source
// (stdlib included) into one Info.
type typedRepo struct {
	fset *token.FileSet
	pkgs []*goPackage
	info *types.Info
	errs []error // type errors, each prefixed with its package path
}

// loadRepo type-checks the repo once for the tests that resolve what an
// identifier or a selector names; it takes seconds.
var loadRepo = sync.OnceValues(func() (*typedRepo, error) {
	fset := token.NewFileSet()
	pkgs, err := repoPackages(fset)
	if err != nil {
		return nil, err
	}
	repo := &typedRepo{fset: fset, pkgs: pkgs, info: &types.Info{
		Types:      map[ast.Expr]types.TypeAndValue{},
		Uses:       map[*ast.Ident]types.Object{},
		Selections: map[*ast.SelectorExpr]*types.Selection{},
	}}
	imp := importer.ForCompiler(fset, "source", nil).(types.ImporterFrom)
	for _, p := range pkgs {
		conf := types.Config{Importer: imp, Error: func(err error) {
			repo.errs = append(repo.errs, fmt.Errorf("%s: %v", p.path, err))
		}}
		p.types, _ = conf.Check(p.path, fset, p.files, repo.info)
	}
	return repo, nil
})

// fieldWrites records, by declaration position, the struct fields that
// some statement sets.
type fieldWrites struct {
	fset    *token.FileSet
	info    *types.Info
	written map[string]bool
}

func (w *fieldWrites) key(obj types.Object) string {
	if v, ok := obj.(*types.Var); ok && v.IsField() {
		return w.fset.Position(v.Pos()).String()
	}
	return ""
}

// selected is the field x.F names, or "".
func (w *fieldWrites) selected(x ast.Expr) string {
	x = ast.Unparen(x)
	if s, ok := x.(*ast.SelectorExpr); ok {
		return w.key(w.info.Uses[s.Sel])
	}
	return ""
}

// writeVisitor walks a file; guards are the fields the conditions of the
// enclosing ifs read, whose writes there are defaults.
type writeVisitor struct {
	w      *fieldWrites
	guards map[string]bool
}

func (v writeVisitor) write(k string) {
	if k != "" && !v.guards[k] {
		v.w.written[k] = true
	}
}

func (v writeVisitor) Visit(n ast.Node) ast.Visitor {
	switch n := n.(type) {
	case *ast.IfStmt:
		inner := writeVisitor{v.w, map[string]bool{}}
		maps.Copy(inner.guards, v.guards)
		ast.Inspect(n.Cond, func(m ast.Node) bool {
			if x, ok := m.(ast.Expr); ok {
				if k := v.w.selected(x); k != "" {
					inner.guards[k] = true
				}
			}
			return true
		})
		if n.Init != nil {
			ast.Walk(v, n.Init)
		}
		ast.Walk(v, n.Cond)
		ast.Walk(inner, n.Body)
		if n.Else != nil {
			ast.Walk(inner, n.Else)
		}
		return nil
	case *ast.CompositeLit:
		t := v.w.info.TypeOf(n)
		if p, ok := t.(*types.Pointer); ok {
			t = p.Elem()
		}
		st, ok := t.Underlying().(*types.Struct)
		if !ok {
			break
		}
		for i, e := range n.Elts {
			if kv, ok := e.(*ast.KeyValueExpr); ok {
				if id, ok := kv.Key.(*ast.Ident); ok {
					v.write(v.w.key(v.w.info.Uses[id]))
				}
			} else if i < st.NumFields() {
				v.write(v.w.key(st.Field(i)))
			}
		}
	case *ast.AssignStmt:
		for _, lhs := range n.Lhs {
			v.write(v.w.selected(lhs))
		}
	case *ast.IncDecStmt:
		v.write(v.w.selected(n.X))
	case *ast.CallExpr:
		// flag.Float64Var(&cfg.Rho, …) and the FlagSet methods.
		fn, ok := ast.Unparen(n.Fun).(*ast.SelectorExpr)
		if !ok {
			break
		}
		if obj := v.w.info.Uses[fn.Sel]; obj == nil || obj.Pkg() == nil || obj.Pkg().Path() != "flag" {
			break
		}
		for _, arg := range n.Args {
			if u, ok := ast.Unparen(arg).(*ast.UnaryExpr); ok && u.Op == token.AND {
				v.write(v.w.selected(u.X))
			}
		}
	}
	return v
}

// TestEveryConfigFieldIsSet holds the settings structs to the values the
// repo uses: every exported field of an exported internal struct named
// *Config or *Spec, or listed in configTypes, has a writer in some Go
// non-test Go file of the repo (bench/ and examples/ count), or is on
// configAllowed. A write in a _test.go file does not count: a field
// only a test sets is a constant the programs never vary. A write is a keyed or positional composite literal, an
// assignment or ++/-- through a selector, or &x.F handed to a flag
// function; one inside an if whose condition reads the same field is the
// field's default and does not count. A field with one value in use is a
// constant. The scan type-checks every package from source (stdlib
// included), so it takes seconds.
func TestEveryConfigFieldIsSet(t *testing.T) {
	repo, err := loadRepo()
	if err != nil {
		t.Fatal(err)
	}
	for _, err := range repo.errs {
		t.Error(err)
	}
	fset := repo.fset
	w := &fieldWrites{fset: fset, info: repo.info, written: map[string]bool{}}
	scope := map[string]string{} // field position → "<package>.<Type>.<Field>"
	missing := maps.Clone(configTypes)
	for _, p := range repo.pkgs {
		for _, f := range p.files {
			if !strings.HasSuffix(fset.Position(f.Pos()).Filename, "_test.go") {
				ast.Walk(writeVisitor{w, nil}, f)
			}
		}
		pkg := p.types
		if !strings.HasPrefix(p.path, "srlb/internal/") || pkg == nil {
			continue
		}
		for _, name := range pkg.Scope().Names() {
			obj := pkg.Scope().Lookup(name)
			st, ok := obj.Type().Underlying().(*types.Struct)
			qualified := pkg.Name() + "." + name
			inScope := strings.HasSuffix(name, "Config") || strings.HasSuffix(name, "Spec") || configTypes[qualified]
			if _, isType := obj.(*types.TypeName); !isType || !ok || !obj.Exported() || !inScope ||
				strings.HasSuffix(fset.Position(obj.Pos()).Filename, "_test.go") {
				continue
			}
			delete(missing, qualified)
			for i := range st.NumFields() {
				if f := st.Field(i); f.Exported() {
					scope[w.key(f)] = qualified + "." + f.Name()
				}
			}
		}
	}
	for typ := range missing {
		t.Errorf("configTypes names %s, which is not an exported internal struct", typ)
	}
	if len(scope) < 100 {
		t.Fatalf("scan found %d config fields: run from the repo root", len(scope))
	}

	var unset []string
	stale := maps.Clone(configAllowed)
	for pos, name := range scope {
		_, allowed := configAllowed[name]
		switch {
		case w.written[pos] && allowed:
			t.Errorf("%s has a writer now: drop it from configAllowed", name)
		case !w.written[pos] && !allowed:
			unset = append(unset, fmt.Sprintf("%s: %s", pos, name))
		}
		delete(stale, name)
	}
	sort.Strings(unset)
	for _, u := range unset {
		t.Errorf("%s is never set: make it a constant", u)
	}
	for k := range stale {
		t.Errorf("configAllowed names %s, which is not a config field", k)
	}
}
