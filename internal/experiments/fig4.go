package experiments

import (
	"context"
	"fmt"
	"io"
	"time"

	"srlb/internal/metrics"
	"srlb/internal/stats"
	"srlb/internal/testbed"
)

// Fig4Config reproduces figure 4: the instantaneous server load (mean busy
// workers over the 12 servers) and the corresponding Jain fairness index,
// over the course of a 20000-query run at ρ = 0.88, for RR vs SR4.
// Both series are smoothed with the paper's time-aware EWMA
// (α = 1 − e^(−δt), footnote 2).
type Fig4Config struct {
	// Base: with several Seeds each timeline point is the across-seed
	// mean with a Student-t 95% CI.
	Base
	// Rho is the normalized load (default 0.88, the paper's).
	Rho     float64
	Lambda0 float64
	// Policies defaults to {RR, SR4}, the two lines of the figure.
	Policies []PolicySpec
	// SampleEvery sets the load-sampling period (default 100ms).
	SampleEvery time.Duration
	// EWMATau is the smoothing constant (default 1s = the paper's α).
	EWMATau time.Duration
}

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
// Timeline. Each Run
// builds its own sampling state, so cells are safe to run concurrently.
type fig4Workload struct {
	arrivals    PoissonService
	sampleEvery time.Duration
	tau         time.Duration
}

// Label implements Workload.
func (w fig4Workload) Label() string {
	return fmt.Sprintf("poisson+load-sampling(%dq)", w.arrivals.Queries)
}

// Run implements Workload.
func (w fig4Workload) Run(ctx context.Context, cluster ClusterConfig, spec PolicySpec, load float64) (CellOutcome, error) {
	var samples []Fig4Sample
	meanE := metrics.NewEWMA(w.tau)
	fairE := metrics.NewEWMA(w.tau)
	hooks := PoissonHooks{
		Testbed: func(tb *testbed.Testbed, horizon time.Duration) {
			tb.SampleLoads(w.sampleEvery, horizon, func(now time.Duration, busy []int) {
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
	out.Timeline = samples[:last]
	return out, err
}

// RunFig4 executes the experiment: a one-load-point Sweep of the sampled
// Poisson workload over {RR, SR4}, run in parallel.
func RunFig4(cfg Fig4Config) Fig4Result {
	cfg.Base = cfg.Base.withDefaults()
	if cfg.Rho == 0 {
		cfg.Rho = 0.88
	}
	cfg.Lambda0 = cfg.Cluster.lambda0(cfg.Lambda0)
	if len(cfg.Policies) == 0 {
		cfg.Policies = []PolicySpec{RR(), SRc(4)}
	}
	if cfg.SampleEvery == 0 {
		cfg.SampleEvery = 100 * time.Millisecond
	}
	if cfg.EWMATau == 0 {
		cfg.EWMATau = time.Second
	}

	sweep, _ := cfg.runner().RunSweep(context.Background(), Sweep{
		Cluster:  cfg.Cluster,
		Policies: cfg.Policies,
		Loads:    []float64{cfg.Rho},
		Seeds:    cfg.Seeds,
		Workload: fig4Workload{
			arrivals:    PoissonService{Lambda0: cfg.Lambda0, Queries: cfg.Queries},
			sampleEvery: cfg.SampleEvery,
			tau:         cfg.EWMATau,
		},
	})

	res := Fig4Result{Rho: cfg.Rho, Lambda0: cfg.Lambda0, Seeds: sweep.Seeds}
	for pi, spec := range cfg.Policies {
		var timelines [][]Fig4Sample
		for si := range sweep.Seeds {
			cell := sweep.Cell(pi, 0, si)
			if cell.Err == nil { // a cancelled cell's timeline is truncated
				timelines = append(timelines, cell.Outcome.Timeline)
			}
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

// WriteTSV emits two blocks per policy — the figure's two stacked plots:
// (time, smoothed mean busy workers) and (time, smoothed fairness). A
// replicated run appends the per-point 95% CI half-width columns.
func (r Fig4Result) WriteTSV(w io.Writer) error {
	t := tsvWriter{w: w}
	t.printf("# Figure 4: instantaneous server load (mean, fairness), rho=%.2f\n", r.Rho)
	for _, s := range r.Series {
		replicated := s.N > 1
		if replicated {
			t.printf("# policy: %s (mean over %d seeds)\n", s.Spec.Name, s.N)
		} else {
			t.printf("# policy: %s\n", s.Spec.Name)
		}
		t.printf("t_s\tmean_busy_%s\tfairness_%s", s.Spec.Name, s.Spec.Name)
		if replicated {
			t.printf("\tmean_busy_ci95\tfairness_ci95")
		}
		t.printf("\n")
		for _, p := range s.Samples {
			t.printf("%.1f\t%.3f\t%.4f", p.At.Seconds(), p.MeanBusy, p.Fairness)
			if replicated {
				t.printf("\t%.3f\t%.4f", p.MeanBusyCI95, p.FairnessCI95)
			}
			t.printf("\n")
		}
		t.printf("\n")
	}
	return t.err
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
