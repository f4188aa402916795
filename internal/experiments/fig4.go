package experiments

import (
	"context"
	"fmt"
	"time"

	"srlb/internal/metrics"
	"srlb/internal/stats"
	"srlb/internal/testbed"
)

const (
	// fig4Rho is the paper's normalized load.
	fig4Rho = 0.88
	// fig4SampleEvery is the load-sampling period.
	fig4SampleEvery = 100 * time.Millisecond
	// fig4Tau is the smoothing constant: 1s is the paper's α.
	fig4Tau = time.Second
)

// Fig4Sample is one point of the smoothed series. With replication the
// values are across-seed means and the CI95 fields their 95% interval
// half-widths (zero for a single seed).
type Fig4Sample struct {
	At           time.Duration
	MeanBusy     float64
	Fairness     float64
	MeanBusyCI95 float64
	FairnessCI95 float64
}

// Fig4Series is the timeline for one policy.
type Fig4Series struct {
	Spec PolicySpec
	// N is the number of replicates aggregated into Samples.
	N       int
	Samples []Fig4Sample
}

// Fig4Result holds one series per policy.
type Fig4Result struct {
	Rho     float64
	Lambda0 float64
	Seeds   []uint64
	Series  []Fig4Series
}

// fig4Workload is the Poisson cell instrumented with periodic
// busy-worker sampling; the smoothed timeline is the outcome's
// LoadSamples. Each Run builds its own sampling state, so cells are
// safe to run concurrently.
type fig4Workload struct {
	arrivals PoissonService
}

// Label implements Workload.
func (w fig4Workload) Label() string {
	return fmt.Sprintf("poisson+load-sampling(%dq)", w.arrivals.Queries)
}

// Run implements Workload.
func (w fig4Workload) Run(ctx context.Context, cluster ClusterConfig, spec PolicySpec, load float64) (CellOutcome, error) {
	var samples []Fig4Sample
	meanE := metrics.NewEWMA(fig4Tau)
	fairE := metrics.NewEWMA(fig4Tau)
	hooks := PoissonHooks{
		Testbed: func(tb *testbed.Testbed, horizon time.Duration) {
			tb.SampleLoads(fig4SampleEvery, horizon, func(now time.Duration, busy []int) {
				xs := make([]float64, len(busy))
				var sum float64
				for i, b := range busy {
					xs[i] = float64(b)
					sum += xs[i]
				}
				samples = append(samples, Fig4Sample{
					At:       now,
					MeanBusy: meanE.Update(now, sum/float64(len(busy))),
					Fairness: fairE.Update(now, metrics.Fairness(xs)),
				})
			})
		},
	}
	out, err := OneService(w.arrivals).run(ctx, cluster, spec, load, hooks)
	// Trim trailing idle samples (after the last query completed the
	// cluster sits empty until the horizon guard).
	last := len(samples)
	for last > 0 && samples[last-1].MeanBusy < 1e-9 {
		last--
	}
	out.LoadSamples = samples[:last]
	return out, err
}

// RunFig4 reproduces figure 4: the instantaneous server load (mean busy
// workers over the 12 servers) and the corresponding Jain fairness index,
// over the course of a 20000-query run at ρ = 0.88, for RR vs SR4.
// Both series are smoothed with the paper's time-aware EWMA
// (α = 1 − e^(−δt), footnote 2). It runs a one-load-point Sweep of the
// sampled Poisson workload over {RR, SR4}, the two lines of the figure,
// in parallel. With several Seeds each timeline point is the across-seed
// mean with a Student-t 95% CI.
func RunFig4(b Base) Fig4Result {
	b = b.resolved()
	policies := []PolicySpec{RR(), SRc(4)}
	sweep, _ := b.runner().RunSweep(context.Background(), Sweep{
		Cluster:  b.Cluster,
		Policies: policies,
		Loads:    []float64{fig4Rho},
		Seeds:    b.Seeds,
		Workload: fig4Workload{b.poisson()},
	})

	res := Fig4Result{Rho: fig4Rho, Lambda0: b.Lambda0, Seeds: sweep.Seeds}
	for pi, spec := range policies {
		var timelines [][]Fig4Sample
		for _, cell := range completed(sweep.Replicates(pi, 0, 0)) {
			timelines = append(timelines, cell.Outcome.LoadSamples)
		}
		res.Series = append(res.Series, Fig4Series{
			Spec:    spec,
			N:       len(timelines),
			Samples: aggregateTimelines(timelines),
		})
	}
	return res
}

// aggregateTimelines folds per-seed timelines into one pointwise
// mean ± CI series. The sampling clock is deterministic (fixed period
// from t=0), so sample i has the same At in every replicate; lengths
// differ only by the trailing-idle trim, and the aggregate stops at the
// shortest replicate.
func aggregateTimelines(timelines [][]Fig4Sample) []Fig4Sample {
	switch len(timelines) {
	case 0:
		return nil
	case 1:
		return timelines[0]
	}
	n := len(timelines[0])
	for _, tl := range timelines[1:] {
		n = min(n, len(tl))
	}
	out := make([]Fig4Sample, n)
	busy := make([]float64, len(timelines))
	fair := make([]float64, len(timelines))
	for i := range out {
		for ti, tl := range timelines {
			busy[ti] = tl[i].MeanBusy
			fair[ti] = tl[i].Fairness
		}
		db, df := stats.Describe(busy), stats.Describe(fair)
		out[i] = Fig4Sample{
			At:           timelines[0][i].At,
			MeanBusy:     db.Mean,
			Fairness:     df.Mean,
			MeanBusyCI95: db.CI95,
			FairnessCI95: df.CI95,
		}
	}
	return out
}

// TSV is one table per policy, each holding the figure's two stacked
// plots: (time, smoothed mean busy workers) and (time, smoothed
// fairness). A replicated run appends the per-point 95% CI half-width
// columns.
func (r Fig4Result) TSV() TSV {
	f := TSV{Heading: fmt.Sprintf("Figure 4: instantaneous server load (mean, fairness), rho=%.2f", r.Rho)}
	for _, s := range r.Series {
		comment := "policy: " + s.Spec.Name
		cols := []column[Fig4Sample]{
			{"t_s", func(p Fig4Sample) string { return fmt.Sprintf("%.1f", p.At.Seconds()) }},
			{"mean_busy_" + s.Spec.Name, func(p Fig4Sample) string { return fmt.Sprintf("%.3f", p.MeanBusy) }},
			{"fairness_" + s.Spec.Name, func(p Fig4Sample) string { return fmt.Sprintf("%.4f", p.Fairness) }},
		}
		if s.N > 1 {
			comment += fmt.Sprintf(" (mean over %d seeds)", s.N)
			cols = append(cols,
				column[Fig4Sample]{"mean_busy_ci95", func(p Fig4Sample) string { return fmt.Sprintf("%.3f", p.MeanBusyCI95) }},
				column[Fig4Sample]{"fairness_ci95", func(p Fig4Sample) string { return fmt.Sprintf("%.4f", p.FairnessCI95) }})
		}
		f.Tables = append(f.Tables, newTable("", comment, cols, s.Samples))
	}
	return f
}

// MeanFairness averages the smoothed fairness over the middle 80% of a
// series (ignoring warm-up and drain), the figure's qualitative takeaway.
func (r Fig4Result) MeanFairness(policyName string) (float64, error) {
	for _, s := range r.Series {
		if s.Spec.Name != policyName {
			continue
		}
		n := len(s.Samples)
		if n == 0 {
			return 0, fmt.Errorf("fig4: empty series for %s", policyName)
		}
		lo, hi := n/10, n*9/10
		if hi <= lo {
			lo, hi = 0, n
		}
		var sum float64
		for _, p := range s.Samples[lo:hi] {
			sum += p.Fairness
		}
		return sum / float64(hi-lo), nil
	}
	return 0, fmt.Errorf("fig4: no series for %s", policyName)
}
