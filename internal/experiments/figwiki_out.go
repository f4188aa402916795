package experiments

import (
	"fmt"
	"io"
	"time"

	"srlb/internal/metrics"
	"srlb/internal/sketch"
)

// binLabel renders a bin's start as the trace-time hour (the paper's
// "time of day (UTC)" axis).
func (r WikiResult) binLabel(binIdx int, bins *sketch.TimeBins) string {
	virtual := bins.BinStart(binIdx)
	real := r.Day.RealTime(virtual)
	h := int(real.Hours())
	m := int(real.Minutes()) % 60
	return fmt.Sprintf("%02d:%02d", h, m)
}

// WriteFig6TSV emits figure 6: the wiki-page query rate and the median
// wiki-page load time per 10-minute bin, for every policy.
func (r WikiResult) WriteFig6TSV(w io.Writer) error {
	t := tsvWriter{w: w}
	t.printf("# Figure 6: wiki replay — query rate and median load time per bin\n")
	t.printf("time\trate_qps")
	for _, run := range r.Runs {
		t.printf("\tmedian_s_%s", run.Spec.Name)
	}
	t.printf("\n")
	if len(r.Runs) == 0 {
		return t.err
	}
	ref := r.Runs[0]
	for i := 0; i < ref.WikiBins.NumBins(); i++ {
		// The rate axis reports trace-time q/s; compression preserves
		// rates, so the virtual bin rate is the real one.
		t.printf("%s\t%.1f", r.binLabel(i, ref.WikiBins), ref.Rate(i))
		for _, run := range r.Runs {
			t.printf("\t%s", metrics.FormatDuration(run.WikiBins.Bin(i).Median()))
		}
		t.printf("\n")
	}
	return t.err
}

// WriteFig7TSV emits figure 7: deciles 1–9 of the wiki-page load time per
// bin, one block per policy.
func (r WikiResult) WriteFig7TSV(w io.Writer) error {
	t := tsvWriter{w: w}
	t.printf("# Figure 7: wiki replay — load-time deciles 1..9 per bin\n")
	for _, run := range r.Runs {
		t.printf("# policy: %s\n", run.Spec.Name)
		t.printf("time")
		for d := 1; d <= 9; d++ {
			t.printf("\td%d_s", d)
		}
		t.printf("\n")
		for i := 0; i < run.WikiBins.NumBins(); i++ {
			t.printf("%s", r.binLabel(i, run.WikiBins))
			for _, q := range run.WikiBins.Bin(i).Deciles() {
				t.printf("\t%s", metrics.FormatDuration(q))
			}
			t.printf("\n")
		}
		t.printf("\n")
	}
	return t.err
}

// WriteFig8TSV emits figure 8: the CDF of wiki-page load time over the
// whole day per policy, with the paper's summary stats (median and third
// quartile) in the header.
func (r WikiResult) WriteFig8TSV(w io.Writer) error {
	t := tsvWriter{w: w}
	t.printf("# Figure 8: wiki replay — CDF of wiki page load time over the whole day\n")
	for _, run := range r.Runs {
		t.printf("# policy: %s median=%s q3=%s n=%d\n",
			run.Spec.Name,
			metrics.FormatDuration(run.WikiAll.Median()),
			metrics.FormatDuration(run.WikiAll.Quantile(0.75)),
			run.WikiAll.Count())
		t.printf("rt_s\tcdf_%s\n", run.Spec.Name)
		for _, pt := range run.WikiAll.CDF(200) {
			t.printf("%s\t%.4f\n", metrics.FormatDuration(pt.Value), pt.Fraction)
		}
		t.printf("\n")
	}
	return t.err
}

// Summary compares the paper's headline figure-8 numbers: the overall
// median and Q3 per policy.
type WikiSummary struct {
	Policy     string
	Median, Q3 time.Duration
	WikiPages  int
	Refused    int
	MeanHit    float64
}

// Summaries returns one summary per run.
func (r WikiResult) Summaries() []WikiSummary {
	out := make([]WikiSummary, 0, len(r.Runs))
	for _, run := range r.Runs {
		var hit float64
		for _, h := range run.HitRates {
			hit += h
		}
		if len(run.HitRates) > 0 {
			hit /= float64(len(run.HitRates))
		}
		out = append(out, WikiSummary{
			Policy:    run.Spec.Name,
			Median:    run.WikiAll.Median(),
			Q3:        run.WikiAll.Quantile(0.75),
			WikiPages: run.WikiAll.Count(),
			Refused:   run.Refused,
			MeanHit:   hit,
		})
	}
	return out
}
