package experiments

import (
	"fmt"
	"strings"
	"testing"

	"srlb/internal/metrics"
	"srlb/internal/sketch"
)

// sketchOf is what a default-precision sketch reports of a recorder's
// retained samples.
func sketchOf(r *metrics.Recorder) *sketch.Histogram {
	h := sketch.New()
	for _, d := range r.Samples() {
		h.Add(d)
	}
	return h
}

// writeSketchView renders one replay as sketches see it: the wiki and
// static classes over the whole run (the wiki class with its 200-point
// CDF), then launches, completions and deciles 1–9 per report bin.
func writeSketchView(b *strings.Builder, label string, run WikiRun) {
	all, static := sketchOf(run.WikiAll), sketchOf(run.StaticAll)
	fmt.Fprintf(b, "# %s\n", label)
	for _, c := range []struct {
		class string
		h     *sketch.Histogram
	}{{"wiki", all}, {"static", static}} {
		fmt.Fprintf(b, "%s\tn=%d\tmean_ns=%d\tp50_ns=%d\tp75_ns=%d\tp99_ns=%d\tmax_ns=%d\n",
			c.class, c.h.Count(), c.h.Mean(), c.h.Median(), c.h.Quantile(0.75), c.h.Quantile(0.99), c.h.Max())
	}
	fmt.Fprintf(b, "refused\t%d\n", run.Refused)
	for _, pt := range all.CDF(200) {
		fmt.Fprintf(b, "cdf\t%d\t%.4f\n", pt.Value, pt.Fraction)
	}
	fmt.Fprintf(b, "bin_width_ns\t%d\n", run.WikiBins.Width())
	for i := 0; i < run.WikiBins.NumBins(); i++ {
		bin := sketchOf(run.WikiBins.Bin(i))
		fmt.Fprintf(b, "bin\t%d\tstart_ns=%d\tlaunched=%d\tok=%d", i, run.WikiBins.BinStart(i), run.RateBins.Bin(i).Count(), bin.Count())
		for _, q := range bin.Deciles() {
			fmt.Fprintf(b, "\t%d", q)
		}
		b.WriteByte('\n')
	}
}

// A sketch is a pure function of the multiset of values it was fed, so
// this golden — written from sketches of the samples the replays used to
// retain — pins that every sample reaches the same sketch, per run and
// per bin, however the replay stores them.
func TestWikiSketchView(t *testing.T) {
	var b strings.Builder
	for _, run := range goldenWiki().Runs {
		writeSketchView(&b, "wiki-day "+run.Spec.Name, run)
	}
	_, cell := goldenTraceReplay(t)
	writeSketchView(&b, "trace-replay "+cell.Policy, cell.Outcome.Extra.(WikiRun))
	checkGolden(t, "wiki_sketch_view.txt", b.String())
}
