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
	"internal/experiments.CellStats.MeanCI95": "documented in doc.go's replication recipe (srlb_test runs it)",
	"internal/ipv6.ProtoNone":                 "a protocol constant: IPv6's no-next-header value",
	"internal/sketch.MaxRelativeError":        "test oracle: the histogram's documented error bound",
	"internal/sketch.Histogram.Buckets":       "test oracle: the histogram's bucket growth",
	"internal/sketch.Histogram.Equal":         "test oracle: merge and reset round trips",
	"internal/testbed.Testbed.FeedbackOf":     "test oracle: a replica's feedback view",
	"internal/testbed.Topology.Validate":      "documented in docs/TOPOLOGY.md and fuzzed",
	"internal/feedback.VIPView.Report":        "test oracle: a server's raw report (feedback and testbed tests)",
	"internal/stats.Percentile":               "test oracle: the exact quantile sketch quantiles are held to",
}

// facadeRef is a qualified facade name in prose: doc.go and docs/*.md.
var facadeRef = regexp.MustCompile(`\bsrlb\.([A-Z]\w*)`)

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

// surfaceExport is one exported name of srlb.go or an internal package.
type surfaceExport struct {
	dir, recv, name string
	pos             token.Position
}

func (e surfaceExport) key() string {
	if e.dir == "." {
		return "srlb." + e.name
	}
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
// uses: every exported top-level name and method of srlb.go and of the
// internal packages is read by a non-test file (bench/ and examples/
// included), or is on surfaceAllowed. A facade name's reader is a
// qualified srlb.Name, in Go or in a doc.go/docs/*.md recipe, and every
// such recipe must name something srlb.go exports. An internal name's
// reader is pkg.Name in another package or the bare name in its own; a
// method's is any selector of its name that go/types does not resolve to
// a struct field (q.VIP reading a field VIP reads no method VIP).
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
			if dir == "." || strings.HasPrefix(dir, "internal/") {
				exports = append(exports, exportsOf(repo.fset, dir, f)...)
			}
		}
	}

	facade := map[string]bool{}
	for _, e := range exports {
		if e.dir == "." {
			facade[e.name] = true
		}
	}
	if len(facade) == 0 || len(exports) == len(facade) {
		t.Fatalf("scan found %d exports, %d of them in srlb.go: run from the repo root", len(exports), len(facade))
	}
	docs, _ := filepath.Glob("docs/*.md")
	for _, doc := range append([]string{"doc.go"}, docs...) {
		text, err := os.ReadFile(doc)
		if err != nil {
			t.Fatal(err)
		}
		for i, line := range strings.Split(string(text), "\n") {
			for _, m := range facadeRef.FindAllStringSubmatch(line, -1) {
				if !facade[m[1]] {
					t.Errorf("%s:%d: srlb.%s is not exported by srlb.go", doc, i+1, m[1])
				}
				r.qualified["srlb."+m[1]] = true
			}
		}
	}

	var unread []string
	stale := maps.Clone(surfaceAllowed)
	for _, e := range exports {
		var read bool
		switch {
		case e.dir == ".":
			read = r.qualified["srlb."+e.name]
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
