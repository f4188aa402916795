package experiments

import (
	"encoding/json"
	"errors"
	"go/ast"
	"go/parser"
	"go/token"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"srlb/internal/sketch"
	"srlb/internal/wiki"
)

// failingWriter counts Write calls and fails the failAt-th one only
// (never, when failAt is 0).
type failingWriter struct {
	calls, failAt int
}

func (w *failingWriter) Write(p []byte) (int, error) {
	w.calls++
	if w.calls == w.failAt {
		return 0, errors.New("disk full")
	}
	return len(p), nil
}

// render is the test suite's view of a file: its bytes as Render
// writes them.
func render(t *testing.T, f TSV) string {
	t.Helper()
	var b strings.Builder
	if err := f.Render(&b); err != nil {
		t.Fatal(err)
	}
	return b.String()
}

// A write error must surface from every artifact: each result's file
// value, rendered, makes exactly one Write call, and a failure of that
// call is returned — never a truncated artifact reported as written.
func TestWritersSurfaceEveryWriteError(t *testing.T) {
	hist := sketch.New()
	bins := sketch.NewTimeBins(time.Second, 2*time.Second)
	for _, d := range []time.Duration{10 * time.Millisecond, 30 * time.Millisecond} {
		hist.Add(d)
		bins.Add(d, d)
	}
	seeds := []uint64{1, 2}
	policies := []PolicySpec{RR(), SRc(4)}
	svc := ServiceRow{Policy: "RR", Service: "all", LoadVec: []float64{0.3, 0.1}, N: 2}
	wikiRes := WikiResult{
		Day:  wiki.Config{Compression: 288},
		Runs: []WikiRun{{Spec: RR(), WikiBins: bins, Launched: []int{2, 0}, WikiAll: hist}},
	}

	files := []struct {
		name string
		file TSV
	}{
		{"ablation", AblationResult{Study: "k", Rows: []ServiceRow{{Variant: "k=1"}}}.TSV()},
		{"ablation replicated", AblationResult{Study: "k", Seeds: seeds, Rows: []ServiceRow{{Variant: "k=1"}}}.TSV()},
		{"calibration", CalibrationResult{Probes: []CalibrationProbe{{RatePerSec: 100}}}.TSV()},
		{"churn", ChurnResult{Rows: []ServiceRow{{Policy: "RR", Variant: "steady"}}}.TSV()},
		{"failover", FailoverResult{KillAt: time.Second, Modes: []FailoverMode{{ServiceRow: ServiceRow{Variant: "random"}, Bins: []FailoverBin{{}}}}}.TSV()},
		{"fig2", Fig2Result{Policies: policies, Rhos: []float64{0.5}, Points: [][]Fig2Point{{{}}, {{}}}}.TSV()},
		{"fig2 replicated", Fig2Result{Policies: policies, Rhos: []float64{0.5}, Seeds: seeds, Points: [][]Fig2Point{{{}}, {{}}}}.TSV()},
		{"fig4", Fig4Result{Series: []Fig4Series{{Spec: RR(), N: 1, Samples: []Fig4Sample{{}}}}}.TSV()},
		{"fig4 replicated", Fig4Result{Series: []Fig4Series{{Spec: RR(), N: 2, Samples: []Fig4Sample{{}}}}}.TSV()},
		{"cdf", CDFResult{Policies: policies[:1], RT: []*sketch.Histogram{hist}}.TSV()},
		{"cdf banded", CDFResult{
			Policies: policies[:1], RT: []*sketch.Histogram{hist},
			Stats: []CellStats{newCellStats([]CellResult{{Seed: 1, Outcome: CellOutcome{RT: hist}}, {Seed: 2, Outcome: CellOutcome{RT: hist}}})},
			Bands: []CDFBand{{Fraction: []float64{0.5, 1}, Lo: make([]time.Duration, 2), Mid: make([]time.Duration, 2), Hi: make([]time.Duration, 2)}},
		}.TSV()},
		{"fig6", wikiRes.Fig6()},
		{"fig7", wikiRes.Fig7()},
		{"fig8", wikiRes.Fig8()},
		{"hetero", HeteroResult{Rows: []HeteroRow{{ServiceRow: ServiceRow{Policy: "RR"}}}}.TSV()},
		{"hetero replicated", HeteroResult{Seeds: seeds, Rows: []HeteroRow{{ServiceRow: ServiceRow{Policy: "RR"}}}}.TSV()},
		{"resilience", ResilienceResult{Rows: []ServiceRow{{Variant: "kill/warm"}}}.TSV()},
		{"retransmit", RetransmitResult{Rows: []RetransmitRow{{ServiceRow: ServiceRow{Variant: "abort"}}}}.TSV()},
		{"retransmit replicated", RetransmitResult{Seeds: seeds, Rows: []RetransmitRow{{ServiceRow: ServiceRow{Variant: "abort"}}}}.TSV()},
		{"vipscale", VIPScaleResult{Rows: []VIPScaleRow{{Scheme: "random"}}}.TSV()},
		{"multiservice", MultiServiceResult{Rows: []ServiceRow{svc}}.TSV()},
		{"interference", InterferenceResult{Rows: []InterferenceRow{{ServiceRow: svc}}}.TSV()},
		{"policies", PoliciesResult{Rows: []PoliciesRow{{ServiceRow: svc}}}.TSV()},
		{"rhogrid", RhoGridResult{Rows: []ServiceRow{svc}}.TSV()},
	}
	for _, tc := range files {
		t.Run(tc.name, func(t *testing.T) {
			clean := &failingWriter{}
			if err := tc.file.Render(clean); err != nil {
				t.Fatalf("clean run failed: %v", err)
			}
			if clean.calls != 1 {
				t.Fatalf("Render made %d Write calls, want 1", clean.calls)
			}
			if err := tc.file.Render(&failingWriter{failAt: 1}); err == nil {
				t.Error("the Write call failed, yet Render returned nil")
			}
		})
	}
}

// Render's layout rule, derived from the input alone: each table is its
// `# comment` line, its header line and its rows, and a blank line
// follows every table when the file has a heading or holds several.
func TestTSVRender(t *testing.T) {
	table := func(comment string, rows ...[]string) Table {
		return Table{Comment: comment, Columns: []string{"a", "b"}, Rows: rows}
	}
	cases := []struct {
		name string
		file TSV
		want string
	}{
		{"one table", TSV{Tables: []Table{table("c", []string{"1", "2"}, []string{"3", "4"})}},
			"# c\na\tb\n1\t2\n3\t4\n"},
		{"several tables", TSV{Tables: []Table{table("c1", []string{"1", "2"}), table("c2")}},
			"# c1\na\tb\n1\t2\n\n# c2\na\tb\n\n"},
		{"heading, one table", TSV{Heading: "h", Tables: []Table{table("c", []string{"1", "2"})}},
			"# h\n# c\na\tb\n1\t2\n\n"},
		{"heading, several tables", TSV{Heading: "h", Tables: []Table{table("c1"), table("c2", []string{"1", "2"})}},
			"# h\n# c1\na\tb\n\n# c2\na\tb\n1\t2\n\n"},
		{"heading, no tables", TSV{Heading: "h"}, "# h\n"},
		{"zero rows: figure 6 without runs", WikiResult{}.Fig6(),
			"# Figure 6: wiki replay — query rate and median load time per bin\ntime\trate_qps\n"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			if got := render(t, tc.file); got != tc.want {
				t.Errorf("got  %q\nwant %q", got, tc.want)
			}
		})
	}
}

// The TSV layout is decided in tsv.go alone: no other non-test function
// of the package takes an io.Writer, so none can write bytes of its own.
func TestOnlyTSVTakesAWriter(t *testing.T) {
	files, err := filepath.Glob("*.go")
	if err != nil {
		t.Fatal(err)
	}
	var writers []string
	fset := token.NewFileSet()
	for _, name := range files {
		if strings.HasSuffix(name, "_test.go") || name == "tsv.go" {
			continue
		}
		f, err := parser.ParseFile(fset, name, nil, 0)
		if err != nil {
			t.Fatal(err)
		}
		ast.Inspect(f, func(n ast.Node) bool {
			var params *ast.FieldList
			switch fn := n.(type) {
			case *ast.FuncDecl:
				params = fn.Type.Params
			case *ast.FuncLit:
				params = fn.Type.Params
			default:
				return true
			}
			for _, p := range params.List {
				if sel, ok := p.Type.(*ast.SelectorExpr); ok && sel.Sel.Name == "Writer" {
					if pkg, ok := sel.X.(*ast.Ident); ok && pkg.Name == "io" {
						writers = append(writers, fset.Position(n.Pos()).String())
					}
				}
			}
			return true
		})
	}
	if len(writers) > 0 {
		t.Fatalf("functions outside tsv.go take an io.Writer (render through TSV instead):\n%s", strings.Join(writers, "\n"))
	}
}

// A table cell reaches JSON as its TSV text: a number with the same digits
// when the text is a JSON number literal, a string otherwise. Texts that
// strconv.ParseFloat reads but JSON does not stay strings, so the
// document still marshals.
func TestTableJSONCells(t *testing.T) {
	cells := []string{"0.05", "-0.000", "100000", "1e5", "2.5E-3", "0",
		"NaN", "+Inf", "-Inf", "0x1p-2", "1_000", "01", "1.", ".5", "+1", "-", "", "steady"}
	got, err := json.Marshal(Table{Name: "t", Comment: "c", Columns: []string{"a"}, Rows: [][]string{cells}})
	if err != nil {
		t.Fatal(err)
	}
	want := `{"name":"t","comment":"c","columns":["a"],"rows":[[0.05,-0.000,100000,1e5,2.5E-3,0,` +
		`"NaN","+Inf","-Inf","0x1p-2","1_000","01","1.",".5","+1","-","","steady"]]}`
	if string(got) != want {
		t.Errorf("got  %s\nwant %s", got, want)
	}
}
