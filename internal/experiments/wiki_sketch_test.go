package experiments

import (
	"fmt"
	"strings"
	"testing"

	"srlb/internal/sketch"
)

// writeSketchView renders one replay as sketches see it: the wiki and
// static classes over the whole run (the wiki class with its 200-point
// CDF), then launches, completions and deciles 1–9 per report bin.
func writeSketchView(b *strings.Builder, label string, run WikiRun) {
	fmt.Fprintf(b, "# %s\n", label)
	for _, c := range []struct {
		class string
		h     *sketch.Histogram
	}{{"wiki", run.WikiAll}, {"static", run.StaticAll}} {
		fmt.Fprintf(b, "%s\tn=%d\tmean_ns=%d\tp50_ns=%d\tp75_ns=%d\tp99_ns=%d\tmax_ns=%d\n",
			c.class, c.h.Count(), c.h.Mean(), c.h.Median(), c.h.Quantile(0.75), c.h.Quantile(0.99), c.h.Max())
	}
	fmt.Fprintf(b, "refused\t%d\n", run.Refused)
	for _, pt := range run.WikiAll.CDF(200) {
		fmt.Fprintf(b, "cdf\t%d\t%.4f\n", pt.Value, pt.Fraction)
	}
	fmt.Fprintf(b, "bin_width_ns\t%d\n", run.WikiBins.Width())
	for i := 0; i < run.WikiBins.NumBins(); i++ {
		bin := run.WikiBins.Bin(i)
		fmt.Fprintf(b, "bin\t%d\tstart_ns=%d\tlaunched=%d\tok=%d", i, run.WikiBins.BinStart(i), run.Launched[i], bin.Count())
		for _, q := range bin.Deciles() {
			fmt.Fprintf(b, "\t%d", q)
		}
		b.WriteByte('\n')
	}
}

// A sketch is a pure function of the multiset of values it was fed, and
// this golden was written from default-precision sketches of every
// sample a replay produced, kept in slices per run and per bin: it pins
// that each sample reaches its run's and its bin's sketch.
func TestWikiSketchView(t *testing.T) {
	var b strings.Builder
	for _, run := range goldenWiki().Runs {
		writeSketchView(&b, "wiki-day "+run.Spec.Name, run)
	}
	_, cell := goldenTraceReplay(t)
	writeSketchView(&b, "trace-replay "+cell.Policy, cell.Outcome.Extra.(WikiRun))
	checkGolden(t, "wiki_sketch_view.txt", b.String())
}
