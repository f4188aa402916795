package plot

import (
	"bytes"
	"math"
	"strings"
	"testing"
)

func TestRenderBasicChart(t *testing.T) {
	var buf bytes.Buffer
	err := Render(&buf, Config{Title: "fig", XLabel: "rho", YLabel: "rt"},
		Series{Name: "RR", X: []float64{0, 0.5, 1}, Y: []float64{0.1, 0.3, 1.2}},
		Series{Name: "SR4", X: []float64{0, 0.5, 1}, Y: []float64{0.1, 0.15, 0.5}},
	)
	if err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	for _, want := range []string{"fig", "* RR", "o SR4", "rho", "+---"} {
		if !strings.Contains(out, want) {
			t.Fatalf("missing %q in:\n%s", want, out)
		}
	}
	lines := strings.Split(strings.TrimRight(out, "\n"), "\n")
	// title + height rows + axis + x-labels + legend
	if len(lines) != 1+height+1+1+1 {
		t.Fatalf("line count = %d:\n%s", len(lines), out)
	}
	// The max point of RR (y=1.2) must be at the top row; min at bottom.
	if !strings.Contains(lines[1], "*") {
		t.Fatalf("top row has no RR marker:\n%s", out)
	}
}

func TestRenderErrors(t *testing.T) {
	var buf bytes.Buffer
	if err := Render(&buf, Config{}); err == nil {
		t.Fatal("no series accepted")
	}
	if err := Render(&buf, Config{}, Series{Name: "bad", X: []float64{1}, Y: []float64{1, 2}}); err == nil {
		t.Fatal("mismatched lengths accepted")
	}
	nan := math.NaN()
	if err := Render(&buf, Config{}, Series{Name: "nan", X: []float64{nan}, Y: []float64{nan}}); err == nil {
		t.Fatal("all-NaN accepted")
	}
}

func TestRenderDegenerateRanges(t *testing.T) {
	var buf bytes.Buffer
	// Constant series: ranges are artificially widened, no division by 0.
	err := Render(&buf, Config{},
		Series{Name: "flat", X: []float64{1, 1, 1}, Y: []float64{2, 2, 2}})
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), "flat") {
		t.Fatal("legend missing")
	}
}

func TestManySeriesMarkersCycle(t *testing.T) {
	var buf bytes.Buffer
	var series []Series
	for i := 0; i < 10; i++ {
		series = append(series, Series{
			Name: strings.Repeat("s", i+1),
			X:    []float64{0, 1},
			Y:    []float64{float64(i), float64(i + 1)},
		})
	}
	if err := Render(&buf, Config{}, series...); err != nil {
		t.Fatal(err)
	}
}

func TestFormatTick(t *testing.T) {
	if formatTick(1234.5) != "1235" && formatTick(1234.5) != "1234" {
		t.Fatalf("big tick = %q", formatTick(1234.5))
	}
	if formatTick(12.34) != "12.3" {
		t.Fatalf("mid tick = %q", formatTick(12.34))
	}
	if formatTick(0.1234) != "0.123" {
		t.Fatalf("small tick = %q", formatTick(0.1234))
	}
}

// Golden output for the CI-aware form: mean ± ci95 error bars, the
// rendering srlb-bench uses for replicated SweepStats series. The
// whisker spans y ± yerr with the series marker overprinting the center.
func TestRenderErrorBarsGolden(t *testing.T) {
	var buf bytes.Buffer
	err := Render(&buf, Config{Title: "mean rt vs load (error bars = ci95)", XLabel: "rho", YLabel: "rt(s)"},
		Series{Name: "RR", X: []float64{0.2, 0.5, 0.8}, Y: []float64{0.12, 0.3, 1.0}, YErr: []float64{0.02, 0.08, 0.3}},
		Series{Name: "SR 4", X: []float64{0.2, 0.5, 0.8}, Y: []float64{0.11, 0.18, 0.42}, YErr: []float64{0.01, 0.03, 0.1}},
	)
	if err != nil {
		t.Fatal(err)
	}
	golden := "mean rt vs load (error bars = ci95)\n" +
		"   1.300 |                                                                       |\n" +
		"         |                                                                       |\n" +
		"         |                                                                       |\n" +
		"         |                                                                       |\n" +
		"         |                                                                       |\n" +
		"         |                                                                       *\n" +
		"         |                                                                       |\n" +
		"         |                                                                       |\n" +
		"         |                                                                       |\n" +
		"         |                                                                       |\n" +
		"   rt(s) |                                                                       |\n" +
		"         |                                                                        \n" +
		"         |                                                                        \n" +
		"         |                                                                       |\n" +
		"         |                                                                       o\n" +
		"         |                                   |                                   |\n" +
		"         |                                   *                                   |\n" +
		"         |                                   |                                    \n" +
		"         |                                   o                                    \n" +
		"   0.100 |o                                  |                                    \n" +
		"         +------------------------------------------------------------------------\n" +
		"          0.200                             rho                              0.800\n" +
		"          * RR   o SR 4\n"
	if got := buf.String(); got != golden {
		t.Fatalf("error-bar rendering drifted from golden:\ngot:\n%s\nwant:\n%s", got, golden)
	}
}

func TestRenderYErrValidation(t *testing.T) {
	var buf bytes.Buffer
	err := Render(&buf, Config{}, Series{Name: "bad", X: []float64{1, 2}, Y: []float64{1, 2}, YErr: []float64{0.1}})
	if err == nil {
		t.Fatal("mismatched YErr length accepted")
	}
	// The y-range must widen to include the whiskers: a flat line with
	// errors still renders without a degenerate range.
	if err := Render(&buf, Config{},
		Series{Name: "flat", X: []float64{0, 1}, Y: []float64{1, 1}, YErr: []float64{0.5, 0.5}}); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	if !strings.Contains(out, "|") || !strings.Contains(out, "*") {
		t.Fatalf("whiskers missing:\n%s", out)
	}
}

func TestRenderFacets(t *testing.T) {
	var buf bytes.Buffer
	s := Series{Name: "RR", X: []float64{0, 1}, Y: []float64{1, 2}}
	err := RenderFacets(&buf, Config{XLabel: "rho"},
		Facet{Title: "web", Series: []Series{s}},
		Facet{Title: "batch", Series: []Series{s}},
	)
	if err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	for _, title := range []string{"web", "batch"} {
		if !strings.Contains(out, title) {
			t.Fatalf("facet title %q missing:\n%s", title, out)
		}
	}
	// Facets are separated by a blank line (two consecutive newlines).
	if !strings.Contains(out, "\n\n") {
		t.Fatalf("no separator between facets:\n%s", out)
	}
	// A facet that fails to render propagates its error.
	bad := Series{Name: "bad", X: []float64{1}, Y: []float64{1, 2}}
	if err := RenderFacets(&buf, Config{}, Facet{Title: "x", Series: []Series{bad}}); err == nil {
		t.Fatal("facet rendering error not propagated")
	}
}
