package srlb_test

import (
	"go/ast"
	"go/token"
	"go/types"
	"maps"
	"os"
	"path"
	"path/filepath"
	"regexp"
	"sort"
	"strconv"
	"strings"
	"testing"
)

// surfaceAllowed are the exports that may have no reader in a non-test
// file, each with the reason it stays exported.
var surfaceAllowed = map[string]string{
	"internal/agent.Dynamic.C":                "test oracle: SRdyn's threshold (agent and testbed tests)",
	"internal/experiments.Table.MarshalJSON":  "called by encoding/json",
	"internal/experiments.CellStats.MeanRT":   "documented in doc.go's replication recipe",
	"internal/experiments.CellStats.MeanCI95": "documented in doc.go's replication recipe (TestSweepAggregate runs it)",
	"internal/ipv6.ProtoNone":                 "a protocol constant: IPv6's no-next-header value",
	"internal/sketch.Histogram.Buckets":       "test oracle: the histogram's bucket growth",
	"internal/sketch.Histogram.Equal":         "test oracle: merge and reset round trips",
	"internal/testbed.Testbed.FeedbackOf":     "test oracle: a replica's feedback view",
	"internal/testbed.Topology.Validate":      "documented in docs/TOPOLOGY.md and fuzzed",
	"internal/feedback.VIPView.Report":        "test oracle: a server's raw report (feedback and testbed tests)",
	"internal/stats.Percentile":               "test oracle: the exact quantile sketch quantiles are held to",
}

// docRef is a package-qualified name in prose: doc.go and docs/*.md.
var docRef = regexp.MustCompile(`\b([a-z]\w*)\.([A-Z]\w*)`)

// surfaceReads is what the repo's non-test Go files read.
type surfaceReads struct {
	qualified map[string]bool // "<import path>.<Name>" from another package
	bare      map[string]bool // "<dir>.<Name>", an identifier that is not a declaration
	selectors map[string]bool // x.Name naming neither a package member nor a struct field: methods match by name
}

func (r surfaceReads) scan(dir string, f *ast.File, info *types.Info) {
	imports := map[string]string{}
	for _, s := range f.Imports {
		p, _ := strconv.Unquote(s.Path.Value)
		name := path.Base(p)
		if s.Name != nil {
			name = s.Name.Name
		}
		imports[name] = p
	}
	notRead := map[*ast.Ident]bool{}
	ast.Inspect(f, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.FuncDecl:
			notRead[n.Name] = true
		case *ast.TypeSpec:
			notRead[n.Name] = true
		case *ast.ValueSpec:
			for _, id := range n.Names {
				notRead[id] = true
			}
		case *ast.Field:
			for _, id := range n.Names {
				notRead[id] = true
			}
		case *ast.SelectorExpr:
			notRead[n.Sel] = true
			if x, ok := n.X.(*ast.Ident); ok && imports[x.Name] != "" {
				r.qualified[imports[x.Name]+"."+n.Sel.Name] = true
			} else if sel := info.Selections[n]; sel == nil || sel.Kind() != types.FieldVal {
				r.selectors[n.Sel.Name] = true
			}
		case *ast.Ident:
			if !notRead[n] {
				r.bare[dir+"."+n.Name] = true
			}
		}
		return true
	})
}

// surfaceExport is one exported name of an internal package.
type surfaceExport struct {
	dir, recv, name string
	pos             token.Position
}

func (e surfaceExport) key() string {
	if e.recv != "" {
		return e.dir + "." + e.recv + "." + e.name
	}
	return e.dir + "." + e.name
}

func exportsOf(fset *token.FileSet, dir string, f *ast.File) []surfaceExport {
	var out []surfaceExport
	add := func(recv string, id *ast.Ident) {
		if id.IsExported() {
			out = append(out, surfaceExport{dir, recv, id.Name, fset.Position(id.Pos())})
		}
	}
	for _, d := range f.Decls {
		switch d := d.(type) {
		case *ast.FuncDecl:
			recv := ""
			if d.Recv != nil {
				recv = receiverName(d.Recv.List[0].Type)
			}
			add(recv, d.Name)
		case *ast.GenDecl:
			for _, s := range d.Specs {
				switch s := s.(type) {
				case *ast.TypeSpec:
					add("", s.Name)
				case *ast.ValueSpec:
					for _, id := range s.Names {
						add("", id)
					}
				}
			}
		}
	}
	return out
}

func receiverName(x ast.Expr) string {
	for {
		switch t := x.(type) {
		case *ast.StarExpr:
			x = t.X
		case *ast.IndexExpr:
			x = t.X
		case *ast.IndexListExpr:
			x = t.X
		case *ast.Ident:
			return t.Name
		default:
			return "?"
		}
	}
}

// TestEveryExportHasAReader holds the public surface to what the repo
// uses: every exported top-level name and method of the internal
// packages is read by a non-test file (bench/ and examples/ included),
// or is on surfaceAllowed. A name's reader is pkg.Name in another
// package, the bare name in its own, or pkg.Name in doc.go or
// docs/*.md, where every such pkg.Name of an internal package must name
// one of its exports. A method's reader is any selector of its name
// that go/types does not resolve to a struct field (q.VIP reading a
// field VIP reads no method VIP).
func TestEveryExportHasAReader(t *testing.T) {
	repo, err := loadRepo()
	if err != nil {
		t.Fatal(err)
	}
	for _, err := range repo.errs {
		t.Error(err) // without types, a field read would pass for a method read
	}
	root, err := os.Getwd()
	if err != nil {
		t.Fatal(err)
	}
	r := surfaceReads{map[string]bool{}, map[string]bool{}, map[string]bool{}}
	var exports []surfaceExport
	for _, p := range repo.pkgs {
		for _, f := range p.files {
			name := repo.fset.File(f.Pos()).Name()
			if strings.HasSuffix(name, "_test.go") {
				continue
			}
			rel, _ := filepath.Rel(root, filepath.Dir(name))
			dir := filepath.ToSlash(rel)
			r.scan(dir, f, repo.info)
			if strings.HasPrefix(dir, "internal/") {
				exports = append(exports, exportsOf(repo.fset, dir, f)...)
			}
		}
	}
	if len(exports) == 0 {
		t.Fatal("scan found no internal export: run from the repo root")
	}

	// topLevel maps an internal package's name to its top-level exports.
	topLevel := map[string]map[string]bool{}
	for _, e := range exports {
		pkg := path.Base(e.dir)
		if topLevel[pkg] == nil {
			topLevel[pkg] = map[string]bool{}
		}
		if e.recv == "" {
			topLevel[pkg][e.name] = true
		}
	}
	docs, _ := filepath.Glob("docs/*.md")
	for _, doc := range append([]string{"doc.go"}, docs...) {
		text, err := os.ReadFile(doc)
		if err != nil {
			t.Fatal(err)
		}
		for i, line := range strings.Split(string(text), "\n") {
			for _, m := range docRef.FindAllStringSubmatch(line, -1) {
				pkg, name := m[1], m[2]
				if topLevel[pkg] == nil {
					continue // not an internal package
				}
				if !topLevel[pkg][name] {
					t.Errorf("%s:%d: %s.%s is not exported by internal/%s", doc, i+1, pkg, name, pkg)
				}
				r.qualified["srlb/internal/"+pkg+"."+name] = true
			}
		}
	}

	var unread []string
	stale := maps.Clone(surfaceAllowed)
	for _, e := range exports {
		var read bool
		switch {
		case e.recv != "":
			read = r.selectors[e.name]
		default:
			read = r.qualified["srlb/"+e.dir+"."+e.name] || r.bare[e.dir+"."+e.name]
		}
		_, allowed := surfaceAllowed[e.key()]
		switch {
		case read && allowed:
			t.Errorf("%s has a reader now: drop it from surfaceAllowed", e.key())
		case !read && !allowed:
			unread = append(unread, strings.TrimPrefix(e.pos.String(), root+"/")+": "+e.key())
		}
		delete(stale, e.key())
	}
	sort.Strings(unread)
	for _, u := range unread {
		t.Errorf("%s is exported but no non-test file reads it", u)
	}
	for k := range stale {
		t.Errorf("surfaceAllowed names %s, which is not exported", k)
	}
}
