package experiments

import (
	"context"
	"fmt"
	"io"
	"math"
	"time"

	"srlb/internal/metrics"
)

// Fig2Config reproduces figure 2: mean page-load time as a function of the
// normalized request rate ρ, for RR and the SRc/SRdyn policies.
type Fig2Config struct {
	Cluster ClusterConfig
	// Lambda0 normalizes ρ (0 ⇒ measured first via Calibrate).
	Lambda0 float64
	// Rhos are the normalized rates to sweep (default: the paper's
	// "24 values of ρ in the range (0, 1)").
	Rhos []float64
	// Policies defaults to PaperPolicies().
	Policies []PolicySpec
	// Queries per (policy, ρ) point (default 20000, as in §V-B).
	Queries int
	// Seeds is the replication axis (default: the cluster seed alone).
	// With several seeds every point reports mean ± 95% CI across
	// replicates — use DeriveSeeds to expand a base seed.
	Seeds []uint64
	// Workers bounds the sweep's parallelism (0 = GOMAXPROCS).
	Workers int
	// Progress, if non-nil, receives one line per finished point.
	Progress func(string)
	// Workload, when non-nil, replaces the default Poisson workload —
	// the same policies × loads grid replayed under another arrival
	// process (srlb-bench's bursty sweep passes a one-service BurstyService here).
	// The workload's own Lambda0/Queries fields apply; cfg.Lambda0 still
	// normalizes the reported axis and cfg.Queries is ignored.
	Workload Workload
}

// DefaultRhos returns 24 evenly spaced loads in (0, 1): 0.04 … 0.96.
func DefaultRhos() []float64 {
	out := make([]float64, 24)
	for i := range out {
		out[i] = 0.04 * float64(i+1)
	}
	return out
}

// Fig2Point is one (policy, ρ) outcome, aggregated across the
// replication axis: point estimates are across-seed means of per-seed
// statistics, the CI95 fields their Student-t 95% half-widths (zero
// when N == 1 — unknown, not exact).
type Fig2Point struct {
	Rho     float64
	Mean    time.Duration
	Median  time.Duration
	P95     time.Duration
	OKFrac  float64
	Refused int
	// N is the number of completed replicates behind the estimates.
	N          int
	MeanCI95   time.Duration
	MedianCI95 time.Duration
	P95CI95    time.Duration
}

// Fig2Result holds the full sweep, indexed [policy][rhoIdx].
type Fig2Result struct {
	Lambda0 float64
	// WorkloadLabel names the arrival process when it is not the default
	// Poisson one (empty otherwise) — it only changes the TSV header;
	// the row format is identical across workloads, so sweeps compare
	// column for column.
	WorkloadLabel string
	Policies      []PolicySpec
	Rhos          []float64
	Seeds         []uint64
	Points        [][]Fig2Point
	// Cells are the raw sweep cells (Scenarios() order), including
	// per-cell wall-clock.
	Cells []CellResult
	// Stats folds the replication axis: one aggregate per (policy, ρ) —
	// cmd/srlb-bench's machine-readable artifact (BENCH_sweep.json).
	Stats SweepStats
}

// RunFig2 executes the figure as a Sweep: PaperPolicies × ρ points over
// the Poisson workload, on a parallel Runner.
func RunFig2(cfg Fig2Config) Fig2Result {
	// Fig2Config keeps Base's fields flat (as CalibrationConfig does):
	// bench/ builds both as keyed literals, and Go cannot set a promoted
	// field in a composite literal. They are lifted into the base here.
	base := Base{Cluster: cfg.Cluster, Queries: cfg.Queries, Seeds: cfg.Seeds,
		Workers: cfg.Workers, Progress: cfg.Progress}.withDefaults()
	if cfg.Lambda0 == 0 {
		cfg.Lambda0 = base.Cluster.lambda0(0)
		if base.Progress != nil {
			base.Progress(fmt.Sprintf("calibrated lambda0 = %.1f q/s (theoretical %.1f)",
				cfg.Lambda0, base.Cluster.TheoreticalCapacity()))
		}
	}
	if len(cfg.Rhos) == 0 {
		cfg.Rhos = DefaultRhos()
	}
	if len(cfg.Policies) == 0 {
		cfg.Policies = PaperPolicies()
	}

	workload := cfg.Workload
	var workloadLabel string
	if workload == nil {
		workload = OneService(PoissonService{Lambda0: cfg.Lambda0, Queries: base.Queries})
	} else {
		workloadLabel = workload.Label()
	}
	sweep, _ := base.runner().RunSweep(context.Background(), Sweep{
		Cluster:  base.Cluster,
		Policies: cfg.Policies,
		Loads:    cfg.Rhos,
		Seeds:    base.Seeds,
		Workload: workload,
	})
	agg := sweep.Aggregate()

	res := Fig2Result{Lambda0: cfg.Lambda0, WorkloadLabel: workloadLabel,
		Policies: cfg.Policies, Rhos: cfg.Rhos,
		Seeds: sweep.Seeds, Cells: sweep.Cells, Stats: agg}
	res.Points = make([][]Fig2Point, len(cfg.Policies))
	for pi := range cfg.Policies {
		res.Points[pi] = make([]Fig2Point, len(cfg.Rhos))
		for ri, rho := range cfg.Rhos {
			cs := agg.Cell(pi, ri)
			if cs.N() == 0 {
				continue
			}
			res.Points[pi][ri] = Fig2Point{
				Rho:        rho,
				Mean:       secDur(cs.Mean.Dist.Mean),
				Median:     secDur(cs.Median.Dist.Mean),
				P95:        secDur(cs.P95.Dist.Mean),
				OKFrac:     cs.OKFraction.Dist.Mean,
				Refused:    int(math.Round(cs.Refused.Dist.Mean)),
				N:          cs.N(),
				MeanCI95:   secDur(cs.Mean.Dist.ReportedCI95()),
				MedianCI95: secDur(cs.Median.Dist.ReportedCI95()),
				P95CI95:    secDur(cs.P95.Dist.ReportedCI95()),
			}
		}
	}
	return res
}

// WriteTSV renders the figure's series: one row per ρ, one mean-response
// column per policy (matching the paper's axes: load factor vs mean
// response time in seconds). A replicated sweep (more than one seed)
// adds a <policy>_ci95 half-width column next to every mean.
func (r Fig2Result) WriteTSV(w io.Writer) error {
	replicated := len(r.Seeds) > 1
	title := "Figure 2"
	if r.WorkloadLabel != "" {
		title = r.WorkloadLabel + " sweep"
	}
	t := tsvWriter{w: w}
	t.printf("# %s: mean response time (s) vs normalized load; lambda0=%.1f q/s", title, r.Lambda0)
	if replicated {
		t.printf("; n=%d seeds, ci = Student-t 95%% half-width", len(r.Seeds))
	}
	t.printf("\nrho")
	for _, p := range r.Policies {
		t.printf("\t%s", p.Name)
		if replicated {
			t.printf("\t%s_ci95", p.Name)
		}
	}
	t.printf("\n")
	for ri, rho := range r.Rhos {
		t.printf("%.2f", rho)
		for pi := range r.Policies {
			t.printf("\t%s", metrics.FormatDuration(r.Points[pi][ri].Mean))
			if replicated {
				t.printf("\t%s", metrics.FormatDuration(r.Points[pi][ri].MeanCI95))
			}
		}
		t.printf("\n")
	}
	return t.err
}

// Improvement returns the RR/policy mean-RT ratio at the ρ closest to the
// requested load — e.g. the paper's "up to 2.3× better than RR for
// ρ = 0.88" headline for SR4.
func (r Fig2Result) Improvement(policyName string, rho float64) (float64, error) {
	rrIdx, polIdx := -1, -1
	for i, p := range r.Policies {
		switch p.Name {
		case "RR":
			rrIdx = i
		case policyName:
			polIdx = i
		}
	}
	if rrIdx < 0 || polIdx < 0 {
		return 0, fmt.Errorf("fig2: policies %q/RR not in result", policyName)
	}
	best, bestDiff := -1, 2.0
	for i, v := range r.Rhos {
		if d := math.Abs(v - rho); d < bestDiff {
			best, bestDiff = i, d
		}
	}
	rr := r.Points[rrIdx][best].Mean
	pol := r.Points[polIdx][best].Mean
	if pol == 0 {
		return 0, fmt.Errorf("fig2: zero mean for %s", policyName)
	}
	return float64(rr) / float64(pol), nil
}
