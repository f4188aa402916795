package experiments

import (
	"context"
	"fmt"
	"io"
	"math"
	"time"

	"srlb/internal/agent"
	"srlb/internal/metrics"
)

// AblationConfig drives the design-choice studies beyond the paper's own
// figures: the number of SR candidates and the selection scheme (§II-B),
// the static threshold sweep (§III-A), the SRdyn window (Algorithm 2),
// and the backlog / abort-on-overflow settings (§IV-C).
type AblationConfig struct {
	Cluster ClusterConfig
	// Rho is the load at which ablations run (default 0.88 — where the
	// policy differences are sharpest in figure 2).
	Rho     float64
	Lambda0 float64
	Queries int
	// Seeds is the replication axis (default: the cluster seed alone).
	Seeds []uint64
	// Workers bounds each study's parallelism (0 = GOMAXPROCS).
	Workers int
	// Progress receives one line per finished run, if non-nil.
	Progress func(string)
}

// AblationRow is one configuration's outcome, aggregated across the
// replication axis (MeanCI95 is zero when N == 1).
type AblationRow struct {
	Label    string
	Mean     time.Duration
	Median   time.Duration
	P95      time.Duration
	Refused  int
	N        int
	MeanCI95 time.Duration
}

// AblationResult groups rows under a study name.
type AblationResult struct {
	Study string
	Rho   float64
	Seeds []uint64
	Rows  []AblationRow
}

// WriteTSV renders the study; replicated runs gain mean_ci95_s and n
// columns.
func (r AblationResult) WriteTSV(w io.Writer) error {
	t := tsvWriter{w: w}
	t.printf("# Ablation: %s (rho=%.2f)\n", r.Study, r.Rho)
	replicated := len(r.Seeds) > 1
	if replicated {
		t.printf("config\tmean_s\tmean_ci95_s\tmedian_s\tp95_s\trefused\tn\n")
	} else {
		t.printf("config\tmean_s\tmedian_s\tp95_s\trefused\n")
	}
	for _, row := range r.Rows {
		if replicated {
			t.printf("%s\t%s\t%s\t%s\t%s\t%d\t%d\n",
				row.Label,
				metrics.FormatDuration(row.Mean),
				metrics.FormatDuration(row.MeanCI95),
				metrics.FormatDuration(row.Median),
				metrics.FormatDuration(row.P95),
				row.Refused, row.N)
		} else {
			t.printf("%s\t%s\t%s\t%s\t%d\n",
				row.Label,
				metrics.FormatDuration(row.Mean),
				metrics.FormatDuration(row.Median),
				metrics.FormatDuration(row.P95),
				row.Refused)
		}
	}
	return t.err
}

func (cfg *AblationConfig) defaults() {
	cfg.Cluster = cfg.Cluster.withDefaults()
	if cfg.Rho == 0 {
		cfg.Rho = 0.88
	}
	if cfg.Queries == 0 {
		cfg.Queries = 20000
	}
	if len(cfg.Seeds) == 0 {
		cfg.Seeds = []uint64{cfg.Cluster.Seed}
	}
	if cfg.Lambda0 == 0 {
		// Through the calibration cache: every study on the same cluster
		// (and any figure sharing it) calibrates once per process.
		cal := CalibrateCached(CalibrationConfig{Cluster: cfg.Cluster})
		cfg.Lambda0 = cal.Lambda0
	}
}

// scenario builds one study cell: the shared Poisson workload at the
// study load, under a (possibly per-cell) cluster and policy.
func (cfg *AblationConfig) scenario(label string, spec PolicySpec, cluster ClusterConfig) Scenario {
	return Scenario{
		Name:     label,
		Cluster:  cluster,
		Policy:   spec,
		Workload: PoissonWorkload{Lambda0: cfg.Lambda0, Queries: cfg.Queries},
		Load:     cfg.Rho,
	}
}

// runStudy replicates every labeled scenario across the study's seeds,
// executes the whole batch on the parallel Runner, and folds each
// scenario's replicates into one labeled row (input order; cancelled
// replicates omitted, fully-cancelled scenarios dropped).
func (cfg *AblationConfig) runStudy(ctx context.Context, study string, scenarios []Scenario) AblationResult {
	res := AblationResult{Study: study, Rho: cfg.Rho, Seeds: cfg.Seeds}
	progress := cfg.Progress
	if progress != nil {
		orig := progress
		progress = func(s string) { orig(fmt.Sprintf("[%s] %s", study, s)) }
	}
	cells, _ := Runner{Workers: cfg.Workers, Progress: progress}.Run(ctx, replicateScenarios(scenarios, cfg.Seeds))
	for i := range scenarios {
		cs := newCellStats(cells[i*len(cfg.Seeds) : (i+1)*len(cfg.Seeds)])
		if cs.N() == 0 {
			continue
		}
		res.Rows = append(res.Rows, AblationRow{
			Label:    cs.Name,
			Mean:     secDur(cs.Mean.Dist.Mean),
			Median:   secDur(cs.Median.Dist.Mean),
			P95:      secDur(cs.P95.Dist.Mean),
			Refused:  int(math.Round(cs.Refused.Dist.Mean)),
			N:        cs.N(),
			MeanCI95: secDur(cs.Mean.Dist.ReportedCI95()),
		})
	}
	return res
}

// RunCandidateAblation sweeps the SR list length k ∈ {1, 2, 3, 4} at the
// SR4 threshold — quantifying Mitzenmacher's "decreased marginal benefit
// from more than two servers" cited in §II-B.
func RunCandidateAblation(cfg AblationConfig) AblationResult {
	cfg.defaults()
	var scenarios []Scenario
	for _, k := range []int{1, 2, 3, 4} {
		spec, label := SRcK(4, k), fmt.Sprintf("k=%d", k)
		if k == 1 {
			spec, label = RR(), "k=1 (RR)"
		}
		scenarios = append(scenarios, cfg.scenario(label, spec, cfg.Cluster))
	}
	return cfg.runStudy(context.Background(), "SR candidates (power of k choices)", scenarios)
}

// RunThresholdAblation sweeps the static threshold c at fixed load,
// locating the SRc optimum (§III-A: "the choice of the parameter c has a
// direct influence on the behavior of the global system").
func RunThresholdAblation(cfg AblationConfig) AblationResult {
	cfg.defaults()
	var scenarios []Scenario
	for _, c := range []int{1, 2, 4, 6, 8, 12, 16, 24, 32} {
		scenarios = append(scenarios, cfg.scenario(fmt.Sprintf("c=%d", c), SRc(c), cfg.Cluster))
	}
	return cfg.runStudy(context.Background(), "static threshold c sweep", scenarios)
}

// RunWindowAblation sweeps SRdyn's adaptation window (Algorithm 2 uses
// 50).
func RunWindowAblation(cfg AblationConfig) AblationResult {
	cfg.defaults()
	var scenarios []Scenario
	for _, win := range []int{10, 25, 50, 100, 200} {
		win := win
		spec := PolicySpec{
			Name:       fmt.Sprintf("SRdyn(w=%d)", win),
			Candidates: 2,
			NewAgent: func() agent.Policy {
				return agent.NewDynamic(agent.DynamicConfig{WindowSize: win})
			},
		}
		scenarios = append(scenarios, cfg.scenario(spec.Name, spec, cfg.Cluster))
	}
	return cfg.runStudy(context.Background(), "SRdyn window size", scenarios)
}

// RunSchemeAblation compares uniform-random candidate selection against
// the Maglev consistent-hash pairs (§II-B's two schemes).
func RunSchemeAblation(cfg AblationConfig) AblationResult {
	cfg.defaults()
	ch := cfg.Cluster
	ch.ConsistentHash = true
	scenarios := []Scenario{
		cfg.scenario("random2", SRc(4), cfg.Cluster),
		cfg.scenario("chash2", SRc(4), ch),
	}
	return cfg.runStudy(context.Background(), "selection scheme (random vs consistent hash)", scenarios)
}

// RunBacklogAblation varies the accept-queue depth and the
// abort-on-overflow switch (§IV-C pins them to 128/on).
func RunBacklogAblation(cfg AblationConfig) AblationResult {
	cfg.defaults()
	var scenarios []Scenario
	for _, backlog := range []int{16, 64, 128, 512} {
		cl := cfg.Cluster
		cl.Server.Backlog = backlog
		scenarios = append(scenarios, cfg.scenario(fmt.Sprintf("backlog=%d", backlog), SRc(4), cl))
	}
	cl := cfg.Cluster
	cl.Server.AbortOnOverflow = false
	scenarios = append(scenarios, cfg.scenario("backlog=128,silent-drop", SRc(4), cl))
	return cfg.runStudy(context.Background(), "backlog depth and abort-on-overflow", scenarios)
}

// RunAllAblations executes every study.
func RunAllAblations(cfg AblationConfig) []AblationResult {
	cfg.defaults() // calibrate once; the copy passes Lambda0 on
	return []AblationResult{
		RunCandidateAblation(cfg),
		RunThresholdAblation(cfg),
		RunWindowAblation(cfg),
		RunSchemeAblation(cfg),
		RunBacklogAblation(cfg),
	}
}
