package experiments

import (
	"context"
	"fmt"
	"strings"
	"time"

	"srlb/internal/testbed"
)

const (
	// resilienceRho is the normalized load.
	resilienceRho = 0.85
	// resilienceRecoverFrac re-attaches the replica at this fraction of
	// the arrival span, just after resilienceKillFrac — a fast process
	// restart, the window warm handoff is for: flows still in
	// SYN-retransmission when the replica returns are steered by its
	// inherited table instead of reset by a cold fallback guess.
	resilienceRecoverFrac = 0.45
	// resilienceReplicas is the LB replica count; replica 0 is killed in
	// the kill and rack scenarios, and a warm restart imports replica 1's
	// table.
	resilienceReplicas = 2
	// resilienceKillFrac places the failure at this fraction of the
	// arrival span.
	resilienceKillFrac = 0.4
	// resilienceRackFrac is the fraction of pool servers lost in the
	// rack scenario, all at resilienceKillFrac.
	resilienceRackFrac = 0.25
	// resilienceRTO enables client SYN retransmission (exponential
	// backoff). Without it a single mis-steered request is a permanent
	// loss for every discipline and the ablation cannot separate them.
	resilienceRTO = time.Second
)

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

// resilienceEvents builds one (scenario, mode)'s lifecycle schedule,
// each failed replica re-attaching at recoverFrac of the arrival span.
// Every event is rate-relative, so the same schedule serves any load
// point.
func resilienceEvents(servers int, scenario, mode string, recoverFrac float64) []testbed.Event {
	warm := mode == "warm"
	recover := func(frac float64) testbed.Event {
		if warm {
			return testbed.RecoverReplicaWarm(0, 0, 1).AtFraction(frac)
		}
		return testbed.RecoverReplica(0, 0).AtFraction(frac)
	}
	switch scenario {
	case "rack":
		// Several pool servers fail at the same instant as the replica —
		// the correlated top-of-rack story. The servers stay dead; only
		// the replica comes back.
		events := testbed.FailPoolRack(0, servers, resilienceRackFrac, resilienceKillFrac)
		return append(events,
			testbed.FailReplica(0, 0).AtFraction(resilienceKillFrac),
			recover(recoverFrac))
	case "rolling":
		// Sequential fail/recover pairs across every replica, spaced to
		// finish by 90% of the span, each outage as short as the kill
		// scenario's.
		stride := (0.9 - resilienceKillFrac) / float64(resilienceReplicas)
		return testbed.RollingUpgradeEvents(resilienceReplicas, resilienceKillFrac, stride, recoverFrac-resilienceKillFrac, warm)
	default: // "kill"
		return []testbed.Event{
			testbed.FailReplica(0, 0).AtFraction(resilienceKillFrac),
			recover(recoverFrac),
		}
	}
}

// RunResilience runs the correlated-failure resilience ablation: the
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
//
// It reports completion rates with CIs per (scenario, mode).
func RunResilience(b Base) ResilienceResult {
	return runResilience(b, resilienceScenarios, resilienceModes, resilienceRho, resilienceRecoverFrac)
}

// runResilience is RunResilience over the given scenarios and modes at
// load rho, each failed replica re-attaching at recoverFrac of the span.
func runResilience(b Base, scenarios, modes []string, rho, recoverFrac float64) ResilienceResult {
	b = b.resolved()

	// Each variant pins the replica count, the event schedule and both
	// selection knobs — the base cluster's own settings must not leak
	// into a mode labeled the other way.
	var variants []ClusterVariant
	for _, scenario := range scenarios {
		for _, mode := range modes {
			events := resilienceEvents(b.Cluster.Servers, scenario, mode, recoverFrac)
			stateless := mode == "stateless"
			variants = append(variants, ClusterVariant{
				Name: scenario + "/" + mode,
				Apply: func(c ClusterConfig) ClusterConfig {
					c.Replicas = resilienceReplicas
					c.Events = events
					c.ConsistentHash = !stateless
					c.MissFallback = !stateless
					return c
				},
			})
		}
	}
	workload := OneService(b.poisson())
	workload.RetransmitRTO = resilienceRTO
	sweep, _ := b.runner().RunSweep(context.Background(), Sweep{
		Cluster:  b.Cluster,
		Policies: []PolicySpec{resiliencePolicy},
		Variants: variants,
		Loads:    []float64{rho},
		Seeds:    b.Seeds,
		Workload: workload,
	})
	agg := sweep.Aggregate()

	res := ResilienceResult{
		Rho: rho, Lambda0: b.Lambda0, Replicas: resilienceReplicas,
		KillFrac: resilienceKillFrac, RecoverFrac: recoverFrac, RackFrac: resilienceRackFrac,
		Seeds: sweep.Seeds,
		Stats: agg,
	}
	for vi, va := range variants {
		rows := cellRows(agg.CellAt(0, vi, 0))
		if rows == nil {
			rows = []ServiceRow{{Variant: va.Name, Rho: rho, Policy: resiliencePolicy.Name, Service: "all", Load: rho}}
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

// TSV is the grid faceted by scenario under the run's heading: one
// table per scenario, one row per recovery mode, completion rate first.
func (r ResilienceResult) TSV() TSV {
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
	f := TSV{Heading: fmt.Sprintf("resilience ablation: rho=%.2f, %d replicas, kill@%.2f recover@%.2f rack_frac=%.2f; lambda0=%.1f q/s; n=%d seeds",
		r.Rho, r.Replicas, r.KillFrac, r.RecoverFrac, r.RackFrac, r.Lambda0, len(r.Seeds))}
	for _, scenario := range resilienceScenarios {
		var rows []ServiceRow
		for _, row := range r.Rows {
			if strings.HasPrefix(row.Variant, scenario+"/") {
				rows = append(rows, row)
			}
		}
		f.Tables = append(f.Tables, newTable("resilience/"+scenario, "facet: scenario="+scenario, cols, rows))
	}
	return f
}
