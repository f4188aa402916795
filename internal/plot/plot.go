// Package plot renders small ASCII line charts and CDFs of experiment
// series, so the regenerated figures can be inspected straight in a
// terminal — no gnuplot required. cmd/srlb-bench uses it behind -plot.
package plot

import (
	"fmt"
	"io"
	"math"
	"strings"
)

// Series is one named line.
type Series struct {
	Name string
	// X and Y must have equal length.
	X, Y []float64
	// YErr, when non-nil, holds the per-point symmetric error half-width
	// (e.g. a 95% CI): point i renders a vertical bar spanning
	// Y[i] ± YErr[i], with the marker at the center. Must match Y's
	// length; zero entries draw no bar.
	YErr []float64
}

// Facet is one titled chart of a multi-chart rendering.
type Facet struct {
	Title  string
	Series []Series
}

// RenderFacets draws several charts sharing one Config — e.g. the
// per-service breakdown of a multi-VIP sweep, one facet per service.
// Each facet's Title overrides cfg.Title; a blank line separates charts.
func RenderFacets(w io.Writer, cfg Config, facets ...Facet) error {
	for i, f := range facets {
		c := cfg
		c.Title = f.Title
		if i > 0 {
			if _, err := fmt.Fprintln(w); err != nil {
				return err
			}
		}
		if err := Render(w, c, f.Series...); err != nil {
			return err
		}
	}
	return nil
}

// markers label the lines in drawing order.
var markers = []byte{'*', 'o', '+', 'x', '#', '@', '%', '&'}

// width and height size the canvas, in characters.
const width, height = 72, 20

// Config labels a chart.
type Config struct {
	Title  string
	XLabel string
	YLabel string
}

// Render draws the series onto one shared canvas.
func Render(w io.Writer, cfg Config, series ...Series) error {
	if len(series) == 0 {
		return fmt.Errorf("plot: no series")
	}
	var minX, maxX, minY, maxY float64
	first := true
	for _, s := range series {
		if len(s.X) != len(s.Y) {
			return fmt.Errorf("plot: series %q has %d x vs %d y", s.Name, len(s.X), len(s.Y))
		}
		if s.YErr != nil && len(s.YErr) != len(s.Y) {
			return fmt.Errorf("plot: series %q has %d y vs %d yerr", s.Name, len(s.Y), len(s.YErr))
		}
		for i := range s.X {
			if math.IsNaN(s.X[i]) || math.IsNaN(s.Y[i]) {
				continue
			}
			lo, hi := s.Y[i], s.Y[i]
			if e := s.err(i); e > 0 {
				lo, hi = lo-e, hi+e
			}
			if first {
				minX, maxX, minY, maxY = s.X[i], s.X[i], lo, hi
				first = false
				continue
			}
			minX = math.Min(minX, s.X[i])
			maxX = math.Max(maxX, s.X[i])
			minY = math.Min(minY, lo)
			maxY = math.Max(maxY, hi)
		}
	}
	if first {
		return fmt.Errorf("plot: all points NaN")
	}
	if maxX == minX {
		maxX = minX + 1
	}
	if maxY == minY {
		maxY = minY + 1
	}

	grid := make([][]byte, height)
	for r := range grid {
		grid[r] = []byte(strings.Repeat(" ", width))
	}
	yRow := func(y float64) int {
		return height - 1 - int((y-minY)/(maxY-minY)*float64(height-1))
	}
	for si, s := range series {
		mark := markers[si%len(markers)]
		for i := range s.X {
			if math.IsNaN(s.X[i]) || math.IsNaN(s.Y[i]) {
				continue
			}
			col := int((s.X[i] - minX) / (maxX - minX) * float64(width-1))
			row := yRow(s.Y[i])
			if e := s.err(i); e > 0 {
				// The CI whisker: a vertical bar from y−err to y+err; the
				// marker overprints the center.
				for r := yRow(s.Y[i] + e); r <= yRow(s.Y[i]-e); r++ {
					if grid[r][col] == ' ' {
						grid[r][col] = '|'
					}
				}
			}
			grid[row][col] = mark
		}
	}

	if cfg.Title != "" {
		if _, err := fmt.Fprintf(w, "%s\n", cfg.Title); err != nil {
			return err
		}
	}
	yLo, yHi := formatTick(minY), formatTick(maxY)
	for r, line := range grid {
		label := strings.Repeat(" ", 9)
		switch r {
		case 0:
			label = fmt.Sprintf("%8s ", yHi)
		case height - 1:
			label = fmt.Sprintf("%8s ", yLo)
		case height / 2:
			if cfg.YLabel != "" {
				label = fmt.Sprintf("%8s ", trunc(cfg.YLabel, 8))
			}
		}
		if _, err := fmt.Fprintf(w, "%s|%s\n", label, string(line)); err != nil {
			return err
		}
	}
	if _, err := fmt.Fprintf(w, "%s+%s\n", strings.Repeat(" ", 9), strings.Repeat("-", width)); err != nil {
		return err
	}
	xAxis := fmt.Sprintf("%s%s", strings.Repeat(" ", 10), formatTick(minX))
	right := formatTick(maxX)
	if cfg.XLabel != "" {
		mid := cfg.XLabel
		pad := width - len(formatTick(minX)) - len(right) - len(mid)
		if pad < 2 {
			pad = 2
		}
		left := pad / 2
		xAxis += strings.Repeat(" ", left) + mid + strings.Repeat(" ", pad-left) + right
	} else {
		xAxis += strings.Repeat(" ", maxInt(2, width-len(formatTick(minX))-len(right))) + right
	}
	if _, err := fmt.Fprintln(w, xAxis); err != nil {
		return err
	}
	// Legend.
	var legend []string
	for si, s := range series {
		legend = append(legend, fmt.Sprintf("%c %s", markers[si%len(markers)], s.Name))
	}
	_, err := fmt.Fprintf(w, "%s%s\n", strings.Repeat(" ", 10), strings.Join(legend, "   "))
	return err
}

// err returns the error half-width of point i (0 when absent or NaN).
func (s Series) err(i int) float64 {
	// Non-finite half-widths (the stats package's "unknown interval"
	// sentinel for n < 2) render as no bar, like an absent YErr.
	if s.YErr == nil || i >= len(s.YErr) || math.IsNaN(s.YErr[i]) || math.IsInf(s.YErr[i], 0) {
		return 0
	}
	return s.YErr[i]
}

func formatTick(v float64) string {
	av := math.Abs(v)
	switch {
	case av >= 1000:
		return fmt.Sprintf("%.0f", v)
	case av >= 10:
		return fmt.Sprintf("%.1f", v)
	default:
		return fmt.Sprintf("%.3f", v)
	}
}

func trunc(s string, n int) string {
	if len(s) <= n {
		return s
	}
	return s[:n]
}

func maxInt(a, b int) int {
	if a > b {
		return a
	}
	return b
}
