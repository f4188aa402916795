package experiments

import (
	"fmt"
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

// Fig6 is figure 6 as one table: the wiki-page query rate and the
// median wiki-page load time per 10-minute bin, for every policy.
func (r WikiResult) Fig6() TSV {
	var rows []int
	if len(r.Runs) > 0 {
		rows = indices(r.Runs[0].WikiBins.NumBins())
	}
	// The rate axis reports trace-time q/s; compression preserves rates,
	// so the virtual bin rate is the real one.
	cols := []column[int]{
		{"time", func(i int) string { return r.binLabel(i, r.Runs[0].WikiBins) }},
		{"rate_qps", func(i int) string { return fmt.Sprintf("%.1f", r.Runs[0].Rate(i)) }},
	}
	for _, run := range r.Runs {
		cols = append(cols, column[int]{"median_s_" + run.Spec.Name, func(i int) string {
			return metrics.FormatDuration(run.WikiBins.Bin(i).Median())
		}})
	}
	return oneTable("Figure 6: wiki replay — query rate and median load time per bin", cols, rows)
}

// Fig7 is figure 7: deciles 1–9 of the wiki-page load time per bin, one
// table per policy.
func (r WikiResult) Fig7() TSV {
	f := TSV{Heading: "Figure 7: wiki replay — load-time deciles 1..9 per bin"}
	for _, run := range r.Runs {
		deciles := make([][9]time.Duration, run.WikiBins.NumBins())
		for i := range deciles {
			deciles[i] = run.WikiBins.Bin(i).Deciles()
		}
		cols := []column[int]{{"time", func(i int) string { return r.binLabel(i, run.WikiBins) }}}
		for d := range 9 {
			cols = append(cols, column[int]{fmt.Sprintf("d%d_s", d+1), func(i int) string {
				return metrics.FormatDuration(deciles[i][d])
			}})
		}
		f.Tables = append(f.Tables, newTable("", "policy: "+run.Spec.Name, cols, indices(len(deciles))))
	}
	return f
}

// Fig8 is figure 8: the CDF of wiki-page load time over the whole day,
// one table per policy, with the paper's summary stats (median and third
// quartile) in its comment.
func (r WikiResult) Fig8() TSV {
	f := TSV{Heading: "Figure 8: wiki replay — CDF of wiki page load time over the whole day"}
	for _, run := range r.Runs {
		pts := run.WikiAll.CDF(cdfPoints)
		f.Tables = append(f.Tables, newTable("", fmt.Sprintf("policy: %s median=%s q3=%s n=%d",
			run.Spec.Name,
			metrics.FormatDuration(run.WikiAll.Median()),
			metrics.FormatDuration(run.WikiAll.Quantile(0.75)),
			run.WikiAll.Count()), cdfCols(run.Spec.Name, pts), indices(len(pts))))
	}
	return f
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
