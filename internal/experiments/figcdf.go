package experiments

import (
	"context"
	"fmt"
	"time"

	"srlb/internal/metrics"
	"srlb/internal/sketch"
	"srlb/internal/stats"
)

// cdfPoints bounds the resolution of every emitted CDF (figures 3, 5
// and 8).
const cdfPoints = 200

// CDFBand is the across-seed confidence band of one policy's CDF: at
// each cumulative fraction, the mean of the per-seed quantile curves
// with its Student-t 95% interval.
type CDFBand struct {
	Fraction    []float64
	Lo, Mid, Hi []time.Duration
}

// CDFResult holds one response-time distribution per policy.
type CDFResult struct {
	Rho      float64
	Lambda0  float64
	Policies []PolicySpec
	Seeds    []uint64
	// RT[i] is the response-time sketch for Policies[i] — all seeds
	// pooled (Histogram.Merge is exact, so pooling order is immaterial).
	RT []*sketch.Histogram
	// Stats[i] aggregates Policies[i]'s per-seed summary statistics
	// (median, p95, … with CIs) across the replication axis.
	Stats []CellStats
	// Bands[i] is the across-seed CDF band for Policies[i]; nil when
	// the sweep ran a single seed.
	Bands []CDFBand
}

// runCDF reproduces figures 3 and 5: the CDF of page load time over a
// batch of b.Queries Poisson queries at normalized load rho, for every
// policy of PaperPolicies — a one-load-point Sweep over the policy set
// × seeds, run in parallel. With several Seeds the emitted CDFs gain
// across-seed confidence bands and the per-policy medians a 95% CI.
func runCDF(b Base, rho float64) CDFResult {
	b = b.resolved()
	policies := PaperPolicies()

	sweep, _ := b.runner().RunSweep(context.Background(), Sweep{
		Cluster:  b.Cluster,
		Policies: policies,
		Loads:    []float64{rho},
		Seeds:    b.Seeds,
		Workload: OneService(b.poisson()),
	})
	agg := sweep.Aggregate()

	res := CDFResult{Rho: rho, Lambda0: b.Lambda0, Policies: policies,
		Seeds: sweep.Seeds}
	replicated := len(sweep.Seeds) > 1
	for pi := range policies {
		pooled := sketch.New()
		reps := completed(sweep.Replicates(pi, 0, 0))
		for _, cell := range reps {
			pooled.Merge(cell.Outcome.RT)
		}
		// The band is evaluated at the exact fractions the pooled CDF
		// will emit (Histogram.CDF clamps its point count to the sample
		// count), so the TSV's row-by-row pairing stays aligned.
		var curves [][]time.Duration // per-seed quantile curves
		fractions := cdfFractions(pooled)
		if replicated {
			for _, cell := range reps {
				curve := make([]time.Duration, len(fractions))
				for fi, p := range fractions {
					curve[fi] = cell.Outcome.RT.Quantile(p)
				}
				curves = append(curves, curve)
			}
		}
		res.RT = append(res.RT, pooled)
		res.Stats = append(res.Stats, agg.Cell(pi, 0))
		res.Bands = append(res.Bands, cdfBand(fractions, curves))
	}
	return res
}

// cdfFractions returns the cumulative fractions pooled.CDF(cdfPoints)
// will emit, so band rows and CDF rows share one grid.
func cdfFractions(pooled *sketch.Histogram) []float64 {
	pts := pooled.CDF(cdfPoints)
	out := make([]float64, len(pts))
	for i, pt := range pts {
		out[i] = pt.Fraction
	}
	return out
}

// cdfBand folds per-seed quantile curves into an across-seed band
// (zero-value band when there are fewer than two curves).
func cdfBand(fractions []float64, curves [][]time.Duration) CDFBand {
	if len(curves) < 2 {
		return CDFBand{}
	}
	band := CDFBand{
		Fraction: fractions,
		Lo:       make([]time.Duration, len(fractions)),
		Mid:      make([]time.Duration, len(fractions)),
		Hi:       make([]time.Duration, len(fractions)),
	}
	xs := make([]float64, len(curves))
	for fi := range fractions {
		for ci, curve := range curves {
			xs[ci] = curve[fi].Seconds()
		}
		d := stats.Describe(xs)
		band.Mid[fi] = secDur(d.Mean)
		// Response times are nonnegative; clamp the t interval's lower
		// edge rather than emit an impossible value.
		band.Lo[fi] = max(0, secDur(d.Lo()))
		band.Hi[fi] = secDur(d.Hi())
	}
	return band
}

// RunFig3 runs the high-load CDF (ρ = 0.88, §V-C figure 3).
func RunFig3(b Base) CDFResult { return runCDF(b, 0.88) }

// RunFig5 runs the light-load CDF (ρ = 0.61, §V-C figure 5).
func RunFig5(b Base) CDFResult { return runCDF(b, 0.61) }

// TSV is one CDF table per policy: rows of (response time in seconds,
// cumulative fraction) — the axes of figures 3 and 5. A replicated run
// (more than one seed) pools all seeds into the rt_s column and appends
// the across-seed band: rt_mean_s ± the Student-t 95% interval.
func (r CDFResult) TSV() TSV {
	f := TSV{Heading: fmt.Sprintf("CDF of response time at rho=%.2f (lambda0=%.1f q/s)", r.Rho, r.Lambda0)}
	for i, spec := range r.Policies {
		comment := fmt.Sprintf("policy: %s (n=%d, median=%s", spec.Name, r.RT[i].Count(), metrics.FormatDuration(r.RT[i].Median()))
		if len(r.Stats) > i && r.Stats[i].N() > 1 {
			comment += fmt.Sprintf(" ± %s over %d seeds", metrics.FormatDuration(secDur(r.Stats[i].Median.Dist.ReportedCI95())), r.Stats[i].N())
		}
		pts := r.RT[i].CDF(cdfPoints)
		cols := cdfCols(spec.Name, pts)
		if len(r.Bands) > i && len(r.Bands[i].Fraction) > 0 {
			band := r.Bands[i]
			cols = append(cols,
				column[int]{"rt_mean_s", func(pi int) string { return metrics.FormatDuration(band.Mid[pi]) }},
				column[int]{"rt_lo_s", func(pi int) string { return metrics.FormatDuration(band.Lo[pi]) }},
				column[int]{"rt_hi_s", func(pi int) string { return metrics.FormatDuration(band.Hi[pi]) }})
		}
		f.Tables = append(f.Tables, newTable("", comment+")", cols, indices(len(pts))))
	}
	return f
}

// cdfCols are the columns of a CDF table whose rows index pts: the
// response time in seconds and the cumulative fraction.
func cdfCols(policy string, pts []sketch.CDFPoint) []column[int] {
	return []column[int]{
		{"rt_s", func(pi int) string { return metrics.FormatDuration(pts[pi].Value) }},
		{"cdf_" + policy, func(pi int) string { return fmt.Sprintf("%.4f", pts[pi].Fraction) }},
	}
}
