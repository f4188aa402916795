package experiments

import (
	"context"
	"io"
	"time"

	"srlb/internal/metrics"
	"srlb/internal/sketch"
	"srlb/internal/stats"
)

// CDFConfig reproduces figures 3 and 5: the CDF of page load time over a
// 20000-query Poisson batch at a fixed normalized load, for every policy.
type CDFConfig struct {
	// Base: with several Seeds the emitted CDFs gain across-seed
	// confidence bands and the per-policy medians a 95% CI.
	Base
	// Rho is the normalized request rate (figure 3: 0.88; figure 5: 0.61).
	Rho float64
	// Lambda0 normalizes ρ (0 ⇒ measured first).
	Lambda0  float64
	Policies []PolicySpec
	// Points bounds the emitted CDF resolution (default 200).
	Points int
}

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
	// Points is the CDF resolution for WriteTSV.
	Points int
}

// RunCDF executes the experiment at cfg.Rho: a one-load-point Sweep over
// the policy set × seeds, run in parallel.
func RunCDF(cfg CDFConfig) CDFResult {
	cfg.Base = cfg.Base.withDefaults()
	cfg.Lambda0 = cfg.Cluster.lambda0(cfg.Lambda0)
	if len(cfg.Policies) == 0 {
		cfg.Policies = PaperPolicies()
	}
	if cfg.Points == 0 {
		cfg.Points = 200
	}

	sweep, _ := cfg.runner().RunSweep(context.Background(), Sweep{
		Cluster:  cfg.Cluster,
		Policies: cfg.Policies,
		Loads:    []float64{cfg.Rho},
		Seeds:    cfg.Seeds,
		Workload: OneService(PoissonService{Lambda0: cfg.Lambda0, Queries: cfg.Queries}),
	})
	agg := sweep.Aggregate()

	res := CDFResult{Rho: cfg.Rho, Lambda0: cfg.Lambda0, Policies: cfg.Policies,
		Seeds: sweep.Seeds, Points: cfg.Points}
	replicated := len(sweep.Seeds) > 1
	for pi := range cfg.Policies {
		pooled := sketch.New()
		for si := range sweep.Seeds {
			cell := sweep.Cell(pi, 0, si)
			if cell.Err != nil { // drop truncated mid-cancel recorders too
				continue
			}
			pooled.Merge(cell.Outcome.RT)
		}
		// The band is evaluated at the exact fractions the pooled CDF
		// will emit (Histogram.CDF clamps its point count to the sample
		// count), so WriteTSV's row-by-row pairing stays aligned.
		var curves [][]time.Duration // per-seed quantile curves
		fractions := cdfFractions(pooled, cfg.Points)
		if replicated {
			for si := range sweep.Seeds {
				cell := sweep.Cell(pi, 0, si)
				if cell.Err != nil {
					continue
				}
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

// cdfFractions returns the cumulative fractions pooled.CDF(points) will
// emit, so band rows and CDF rows share one grid.
func cdfFractions(pooled *sketch.Histogram, points int) []float64 {
	pts := pooled.CDF(points)
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
func RunFig3(cfg CDFConfig) CDFResult {
	cfg.Rho = 0.88
	return RunCDF(cfg)
}

// RunFig5 runs the light-load CDF (ρ = 0.61, §V-C figure 5).
func RunFig5(cfg CDFConfig) CDFResult {
	cfg.Rho = 0.61
	return RunCDF(cfg)
}

// WriteTSV emits per-policy CDF blocks: rows of (response time in seconds,
// cumulative fraction) — the axes of figures 3 and 5. A replicated run
// (more than one seed) pools all seeds into the rt_s column and appends
// the across-seed band: rt_mean_s ± the Student-t 95% interval.
func (r CDFResult) WriteTSV(w io.Writer) error {
	t := tsvWriter{w: w}
	t.printf("# CDF of response time at rho=%.2f (lambda0=%.1f q/s)\n", r.Rho, r.Lambda0)
	for i, spec := range r.Policies {
		t.printf("# policy: %s (n=%d, median=%s", spec.Name, r.RT[i].Count(), metrics.FormatDuration(r.RT[i].Median()))
		if len(r.Stats) > i && r.Stats[i].N() > 1 {
			t.printf(" ± %s over %d seeds", metrics.FormatDuration(secDur(r.Stats[i].Median.Dist.ReportedCI95())), r.Stats[i].N())
		}
		t.printf(")\n")
		banded := len(r.Bands) > i && len(r.Bands[i].Fraction) > 0
		t.printf("rt_s\tcdf_%s", spec.Name)
		if banded {
			t.printf("\trt_mean_s\trt_lo_s\trt_hi_s")
		}
		t.printf("\n")
		band := CDFBand{}
		if banded {
			band = r.Bands[i]
		}
		for pi, pt := range r.RT[i].CDF(r.Points) {
			t.printf("%s\t%.4f", metrics.FormatDuration(pt.Value), pt.Fraction)
			if banded && pi < len(band.Fraction) {
				t.printf("\t%s\t%s\t%s",
					metrics.FormatDuration(band.Mid[pi]),
					metrics.FormatDuration(band.Lo[pi]),
					metrics.FormatDuration(band.Hi[pi]))
			}
			t.printf("\n")
		}
		t.printf("\n")
	}
	return t.err
}
