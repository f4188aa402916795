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
	Base
	// Rho is the normalized load (default 0.85).
	Rho     float64
	Lambda0 float64
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
}

// resilienceScenarios and resilienceModes span the 3×3 variant grid.
// Every cell runs resiliencePolicy — a threshold policy, so acceptance
// depends on instantaneous load: some flows land on their second
// candidate, which is exactly the population the chash fallback guesses
// wrong and warm handoff gets right.
var (
	resilienceScenarios = []string{"kill", "rack", "rolling"}
	resilienceModes     = []string{"stateless", "chash", "warm"}
	resiliencePolicy    = SRc(4)
)

// ResilienceResult holds the 3×3 grid.
type ResilienceResult struct {
	Rho      float64
	Lambda0  float64
	Replicas int
	// KillFrac, RecoverFrac and RackFrac echo the resolved schedule.
	KillFrac, RecoverFrac, RackFrac float64
	Seeds                           []uint64
	// Rows is the grid in scenario-major, mode-minor order: one
	// ServiceRow per cell, "<scenario>/<mode>" in Variant. A cell with
	// no completed replicate keeps its (zero, N = 0) row.
	Rows []ServiceRow
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
	cfg.Base = cfg.Base.withDefaults()
	if cfg.Rho == 0 {
		cfg.Rho = 0.85
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
	cfg.Lambda0 = cfg.Cluster.lambda0(cfg.Lambda0)

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
	sweep, _ := cfg.runner().RunSweep(context.Background(), Sweep{
		Cluster:  cfg.Cluster,
		Policies: []PolicySpec{resiliencePolicy},
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
		rows := cellRows(agg.CellAt(0, vi, 0))
		if rows == nil {
			rows = []ServiceRow{{Variant: va.Name, Rho: cfg.Rho, Policy: resiliencePolicy.Name, Service: "all", Load: cfg.Rho}}
		}
		res.Rows = append(res.Rows, rows...)
	}
	return res
}

// Row returns the (scenario, mode) cell.
func (r ResilienceResult) Row(scenario, mode string) (ServiceRow, error) {
	return findRow("resilience", r.Rows, ServiceRow.base, scenario+"/"+mode, resiliencePolicy.Name, "all",
		func(ServiceRow) float64 { return 0 })
}

// Tables is the grid faceted by scenario: one table per scenario, one
// row per recovery mode, completion rate first.
func (r ResilienceResult) Tables() []Table {
	sec := func(header string, v func(ServiceRow) time.Duration) column[ServiceRow] {
		return column[ServiceRow]{header, func(r ServiceRow) string { return fmt.Sprintf("%.4f", v(r).Seconds()) }}
	}
	cols := []column[ServiceRow]{
		{"mode", func(r ServiceRow) string { _, mode, _ := strings.Cut(r.Variant, "/"); return mode }},
		colN, colOKFrac,
		{"ok_frac_ci95", colOKCI.cell},
		sec("mean_rt_s", func(r ServiceRow) time.Duration { return r.Mean }),
		sec("mean_rt_ci95", func(r ServiceRow) time.Duration { return r.MeanCI95 }),
		sec("p99_s", func(r ServiceRow) time.Duration { return r.P99 }),
		{"refused", func(r ServiceRow) string { return fmt.Sprintf("%.1f", r.Refused) }},
		{"unfinished", func(r ServiceRow) string { return fmt.Sprintf("%.1f", r.Unfinished) }},
	}
	tables := make([]Table, 0, len(resilienceScenarios))
	for _, scenario := range resilienceScenarios {
		var rows []ServiceRow
		for _, row := range r.Rows {
			if strings.HasPrefix(row.Variant, scenario+"/") {
				rows = append(rows, row)
			}
		}
		tables = append(tables, newTable("resilience/"+scenario, "facet: scenario="+scenario, cols, rows))
	}
	return tables
}

// WriteTSV renders the grid: the run's header line, then each of Tables
// followed by a blank line.
func (r ResilienceResult) WriteTSV(w io.Writer) error {
	t := tsvWriter{w: w}
	t.printf("# resilience ablation: rho=%.2f, %d replicas, kill@%.2f recover@%.2f rack_frac=%.2f; lambda0=%.1f q/s; n=%d seeds\n",
		r.Rho, r.Replicas, r.KillFrac, r.RecoverFrac, r.RackFrac, r.Lambda0, len(r.Seeds))
	for _, table := range r.Tables() {
		if t.err == nil {
			t.err = table.WriteTSV(w)
		}
		t.printf("\n")
	}
	return t.err
}
