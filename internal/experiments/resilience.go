package experiments

import (
	"context"
	"fmt"
	"io"
	"strings"
	"time"

	"srlb/internal/testbed"
)

// ResilienceConfig is the correlated-failure resilience ablation: the
// same replica-kill, rack-loss and rolling-upgrade schedules run under
// three recovery disciplines, isolating what each layer of the SRLB
// failover story buys:
//
//   - "stateless" — the paper's uniform-random selection, no fallback,
//     cold restart. The baseline: flows steered by a replica that never
//     saw their SYN-ACK stall.
//   - "chash" — §II-B consistent-hash selection plus the miss-fallback
//     on the steering path, cold restart. Survivors and the restarted
//     replica recompute a candidate from the packet alone — right
//     whenever the first choice accepted, a guess when it did not.
//   - "warm" — chash plus warm handoff: the restarted replica imports a
//     survivor's flow table (ImportFlows) at the recover instant, so
//     even second-choice bindings steer exactly.
//
// Acceptance is load-dependent (SR with a threshold), so the three
// disciplines separate: warm ≥ chash ≥ stateless in completion rate.
type ResilienceConfig struct {
	Cluster ClusterConfig
	// Rho is the normalized load (default 0.85).
	Rho     float64
	Lambda0 float64
	// Queries per cell (default 20000).
	Queries int
	// Replicas is the LB replica count (default 2); replica 0 is killed
	// in the kill and rack scenarios.
	Replicas int
	// KillFrac places the failure at this fraction of the arrival span
	// (default 0.4); RecoverFrac re-attaches the replica (default 0.45
	// — a fast process restart, the window warm handoff is for: flows
	// still in SYN-retransmission when the replica returns are steered
	// by its inherited table instead of reset by a cold fallback guess).
	KillFrac, RecoverFrac float64
	// RackFrac is the fraction of pool servers lost in the rack
	// scenario (default 0.25), all at KillFrac.
	RackFrac float64
	// RTO enables client SYN retransmission (default 1s, exponential
	// backoff). Without it a single mis-steered request is a permanent
	// loss for every discipline and the ablation cannot separate them.
	RTO time.Duration
	// Seeds is the replication axis (default: the cluster seed alone).
	Seeds    []uint64
	Workers  int
	Progress func(string)
}

// resilienceScenarios and resilienceModes span the 3×3 variant grid.
var (
	resilienceScenarios = []string{"kill", "rack", "rolling"}
	resilienceModes     = []string{"stateless", "chash", "warm"}
)

// ResilienceRow is one (scenario, mode) cell, aggregated across seeds.
// All fields are derived scalars — no wall-clock rides along — so a
// marshalled row slice is byte-identical at any worker count.
type ResilienceRow struct {
	Scenario string
	Mode     string
	// N is the number of completed replicates.
	N int
	// OKFrac is the across-seed mean completion rate; CI95 fields are
	// Student-t half-widths (zero when N == 1).
	OKFrac, OKFracCI95 float64
	// MeanRT and P99 are response-time statistics in seconds.
	MeanRT, MeanRTCI95, P99 float64
	// Refused and Unfinished are mean per-seed counts.
	Refused, Unfinished float64
}

// ResilienceResult holds the 3×3 grid.
type ResilienceResult struct {
	Rho      float64
	Lambda0  float64
	Replicas int
	// KillFrac, RecoverFrac and RackFrac echo the resolved schedule.
	KillFrac, RecoverFrac, RackFrac float64
	Seeds                           []uint64
	// Rows is the grid in scenario-major, mode-minor order.
	Rows []ResilienceRow
	// Stats is the underlying sweep aggregation (per-cell metric
	// distributions, wall-clock), for programmatic drill-down.
	Stats SweepStats
}

// resilienceEvents builds one (scenario, mode)'s lifecycle schedule.
// Every event is rate-relative, so the same schedule serves any load
// point.
func resilienceEvents(cfg ResilienceConfig, scenario, mode string) []testbed.Event {
	warm := mode == "warm"
	donor := 0
	if cfg.Replicas > 1 {
		donor = 1
	}
	recover := func(frac float64) testbed.Event {
		if warm {
			return testbed.RecoverReplicaWarm(0, 0, donor).AtFraction(frac)
		}
		return testbed.RecoverReplica(0, 0).AtFraction(frac)
	}
	switch scenario {
	case "rack":
		// Several pool servers fail at the same instant as the replica —
		// the correlated top-of-rack story. The servers stay dead; only
		// the replica comes back.
		events := testbed.FailPoolRack("", cfg.Cluster.Servers, cfg.RackFrac, cfg.KillFrac)
		return append(events,
			testbed.FailReplica(0, 0).AtFraction(cfg.KillFrac),
			recover(cfg.RecoverFrac))
	case "rolling":
		// Sequential fail/recover pairs across every replica, spaced to
		// finish by 90% of the span, each outage as short as the kill
		// scenario's.
		stride := (0.9 - cfg.KillFrac) / float64(cfg.Replicas)
		down := cfg.RecoverFrac - cfg.KillFrac
		if down > stride/2 {
			down = stride / 2
		}
		return testbed.RollingUpgradeEvents(cfg.Replicas, cfg.KillFrac, stride, down, warm)
	default: // "kill"
		return []testbed.Event{
			testbed.FailReplica(0, 0).AtFraction(cfg.KillFrac),
			recover(cfg.RecoverFrac),
		}
	}
}

// RunResilience executes the ablation.
func RunResilience(cfg ResilienceConfig) ResilienceResult {
	cfg.Cluster = cfg.Cluster.withDefaults()
	if cfg.Rho == 0 {
		cfg.Rho = 0.85
	}
	if cfg.Queries == 0 {
		cfg.Queries = 20000
	}
	if cfg.Replicas == 0 {
		cfg.Replicas = 2
	}
	if cfg.KillFrac == 0 {
		cfg.KillFrac = 0.4
	}
	if cfg.RecoverFrac == 0 {
		cfg.RecoverFrac = 0.45
	}
	if cfg.RackFrac == 0 {
		cfg.RackFrac = 0.25
	}
	if cfg.RTO == 0 {
		cfg.RTO = time.Second
	}
	if cfg.Lambda0 == 0 {
		cal := CalibrateCached(CalibrationConfig{Cluster: cfg.Cluster})
		cfg.Lambda0 = cal.Lambda0
	}

	// Each variant pins the replica count, the event schedule and both
	// selection knobs — the base cluster's own settings must not leak
	// into a mode labeled the other way.
	var variants []ClusterVariant
	for _, scenario := range resilienceScenarios {
		for _, mode := range resilienceModes {
			events := resilienceEvents(cfg, scenario, mode)
			stateless := mode == "stateless"
			variants = append(variants, ClusterVariant{
				Name: scenario + "/" + mode,
				Apply: func(c ClusterConfig) ClusterConfig {
					c.Replicas = cfg.Replicas
					c.Events = events
					c.ConsistentHash = !stateless
					c.MissFallback = !stateless
					return c
				},
			})
		}
	}
	// A threshold policy, so acceptance depends on instantaneous load:
	// some flows land on their second candidate, which is exactly the
	// population the chash fallback guesses wrong and warm handoff gets
	// right.
	policy := SRc(4)

	sweep, _ := Runner{Workers: cfg.Workers, Progress: cfg.Progress}.RunSweep(context.Background(), Sweep{
		Cluster:  cfg.Cluster,
		Policies: []PolicySpec{policy},
		Variants: variants,
		Loads:    []float64{cfg.Rho},
		Seeds:    cfg.Seeds,
		Workload: PoissonWorkload{Lambda0: cfg.Lambda0, Queries: cfg.Queries, RetransmitRTO: cfg.RTO},
	})
	agg := sweep.Aggregate()

	res := ResilienceResult{
		Rho: cfg.Rho, Lambda0: cfg.Lambda0, Replicas: cfg.Replicas,
		KillFrac: cfg.KillFrac, RecoverFrac: cfg.RecoverFrac, RackFrac: cfg.RackFrac,
		Seeds: sweep.Seeds,
		Stats: agg,
	}
	for vi, va := range variants {
		cs := agg.CellAt(0, vi, 0)
		scenario, mode, _ := strings.Cut(va.Name, "/")
		res.Rows = append(res.Rows, ResilienceRow{
			Scenario: scenario,
			Mode:     mode,
			N:        cs.N(),
			OKFrac:   cs.OKFraction.Dist.Mean, OKFracCI95: cs.OKFraction.Dist.ReportedCI95(),
			MeanRT: cs.Mean.Dist.Mean, MeanRTCI95: cs.Mean.Dist.ReportedCI95(),
			P99:     cs.P99.Dist.Mean,
			Refused: cs.Refused.Dist.Mean, Unfinished: cs.Unfinished.Dist.Mean,
		})
	}
	return res
}

// Row returns the (scenario, mode) cell.
func (r ResilienceResult) Row(scenario, mode string) (ResilienceRow, error) {
	for _, row := range r.Rows {
		if row.Scenario == scenario && row.Mode == mode {
			return row, nil
		}
	}
	return ResilienceRow{}, fmt.Errorf("resilience: no cell %s/%s", scenario, mode)
}

// WriteTSV renders the grid faceted by scenario: one block per
// scenario, one row per recovery mode, completion rate first.
func (r ResilienceResult) WriteTSV(w io.Writer) error {
	t := tsvWriter{w: w}
	t.printf("# resilience ablation: rho=%.2f, %d replicas, kill@%.2f recover@%.2f rack_frac=%.2f; lambda0=%.1f q/s; n=%d seeds\n",
		r.Rho, r.Replicas, r.KillFrac, r.RecoverFrac, r.RackFrac, r.Lambda0, len(r.Seeds))
	for _, scenario := range resilienceScenarios {
		t.printf("# facet: scenario=%s\n", scenario)
		t.printf("mode\tn\tok_frac\tok_frac_ci95\tmean_rt_s\tmean_rt_ci95\tp99_s\trefused\tunfinished\n")
		for _, row := range r.Rows {
			if row.Scenario != scenario {
				continue
			}
			t.printf("%s\t%d\t%.4f\t%.4f\t%.4f\t%.4f\t%.4f\t%.1f\t%.1f\n",
				row.Mode, row.N, row.OKFrac, row.OKFracCI95,
				row.MeanRT, row.MeanRTCI95, row.P99, row.Refused, row.Unfinished)
		}
		t.printf("\n")
	}
	return t.err
}
