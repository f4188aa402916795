package experiments

import (
	"context"
	"fmt"

	"srlb/internal/agent"
)

// AblationConfig drives the design-choice studies beyond the paper's own
// figures: the number of SR candidates and the selection scheme (§II-B),
// the static threshold sweep (§III-A), the SRdyn window (Algorithm 2),
// and the backlog / abort-on-overflow settings (§IV-C).
type AblationConfig struct {
	Base
	Lambda0 float64
}

// ablationRho is the load at which ablations run: 0.88, where the policy
// differences are sharpest in figure 2.
const ablationRho = 0.88

// AblationResult groups a study's rows under its name: one ServiceRow
// per configuration, labelled in Variant, aggregated across the
// replication axis.
type AblationResult struct {
	Study string
	Rho   float64
	Seeds []uint64
	Rows  []ServiceRow
}

// TSV is the study as one table; replicated runs gain mean_ci95_s and n
// columns.
func (r AblationResult) TSV() TSV {
	return oneTable(fmt.Sprintf("Ablation: %s (rho=%.2f)", r.Study, r.Rho),
		seedCols(r.Seeds, []column[ServiceRow]{
			colLabel("config"), colMean, colMeanCI, colMedian, colP95, colRefusedCount, colN,
		}), r.Rows)
}

func (cfg *AblationConfig) defaults() {
	cfg.Base = cfg.Base.withDefaults()
	cfg.Lambda0 = cfg.Cluster.lambda0(cfg.Lambda0)
}

// scenario builds one study cell: the shared Poisson workload at the
// study load, under a (possibly per-cell) cluster and policy.
func (cfg *AblationConfig) scenario(label string, spec PolicySpec, cluster ClusterConfig) Scenario {
	return Scenario{
		Name:     label,
		Cluster:  cluster,
		Policy:   spec,
		Workload: OneService(PoissonService{Lambda0: cfg.Lambda0, Queries: cfg.Queries}),
		Load:     ablationRho,
	}
}

// study runs the labelled scenarios as the study of the given name.
func (cfg *AblationConfig) study(name string, scenarios []Scenario) AblationResult {
	rows, _ := cfg.runStudy(context.Background(), name, scenarios)
	return AblationResult{Study: name, Rho: ablationRho, Seeds: cfg.Seeds, Rows: rows}
}

// runStudy replicates every labelled scenario across the base's seeds,
// executes the whole batch on its Runner, and folds each scenario's
// replicates into one row labelled (Variant) with the scenario's name —
// input order, cancelled replicates omitted, fully-cancelled scenarios
// dropped. replicates[i] are the cells behind rows[i], for what a
// ServiceRow does not carry. b must carry its defaults.
func (b Base) runStudy(ctx context.Context, study string, scenarios []Scenario) (rows []ServiceRow, replicates [][]CellResult) {
	runner := b.runner()
	if progress := b.Progress; progress != nil {
		runner.Progress = func(s string) { progress(fmt.Sprintf("[%s] %s", study, s)) }
	}
	reps, _, _ := runner.replicate(ctx, scenarios, b.Seeds, len(b.Seeds), nil)
	for _, group := range reps {
		cs := newCellStats(group)
		for _, row := range cellRows(cs) { // the "all" row of a single-VIP cell
			row.Variant = cs.Name
			rows, replicates = append(rows, row), append(replicates, group)
		}
	}
	return rows, replicates
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
	return cfg.study("SR candidates (power of k choices)", scenarios)
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
	return cfg.study("static threshold c sweep", scenarios)
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
				return agent.NewDynamic(win)
			},
		}
		scenarios = append(scenarios, cfg.scenario(spec.Name, spec, cfg.Cluster))
	}
	return cfg.study("SRdyn window size", scenarios)
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
	return cfg.study("selection scheme (random vs consistent hash)", scenarios)
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
	return cfg.study("backlog depth and abort-on-overflow", scenarios)
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
