// Policy ablation over the load-feedback telemetry plane: the four-way
// scheme comparison {random2, chash2, wleastload, flowlet} run over the
// cross-service interference workload (steady web victim + bursty batch
// aggressor on one shared pool) and its pool-churn variant, with the
// feedback plane enabled so the load-aware schemes actually see the
// surge. Clients close connections explicitly (CloseAck) so every
// connection carries one late steered packet — the flowlet boundary the
// flowlet policy re-steers at.
//
// The measurement is the usual victim view (p99 and completion per
// service as the aggressor ramps) plus the mechanism counter the
// ablation is really about: how many established flows the flowlet
// policy moved mid-connection (Resteers), while per-VIP conservation
// (offered == ok + refused + unfinished) still holds.
//
// RunPolicies is the canonical instance behind
// `srlb-bench -experiment policies`.

package experiments

import (
	"context"
	"fmt"

	"srlb/internal/feedback"
	"srlb/internal/plot"
)

// PoliciesRow is a ServiceRow — Variant is "steady" or "churn", Rho the
// aggressor's load (the sweep knob) — plus the mechanism counter.
type PoliciesRow struct {
	ServiceRow
	// Resteers is the across-seed mean count of flowlet re-steers
	// (mid-connection candidate rewrites, whole cluster — reported on
	// the "all" rows, zero elsewhere and for non-flowlet policies).
	Resteers float64
}

// PoliciesResult holds the full grid.
type PoliciesResult struct {
	Lambda0 float64
	WebRho  float64
	// BatchRhos is the swept aggressor axis.
	BatchRhos []float64
	Seeds     []uint64
	// Variants lists the topology variants ("steady", "churn");
	// Services the service names in spec order (web, batch).
	Variants []string
	Services []string
	// Stats is the underlying replicated sweep — the machine-readable
	// artifact's cells.
	Stats SweepStats
	Rows  []PoliciesRow
}

// RunPolicies executes the experiment: the web victim is pinned at
// webRho, the batch aggressor sweeps batchRhos, and the four-way
// ablation ablationPolicies runs each cell, the flowlet policy at
// selection.DefaultFlowletGap. b.Queries is the web VIP's arrivals per
// cell, and b.Lambda0 the shared pool's capacity rate.
func RunPolicies(b Base) PoliciesResult {
	b = b.resolved()
	rhos := batchRhos()
	// The churn variant drains a third of the shared pool (at least one
	// server) mid-run and later re-adds it.
	churnBy := max(1, b.Cluster.Servers/3)
	policies := ablationPolicies()
	// The ablation is about the telemetry plane — it is always on here,
	// at its default tuning; per-policy degradation to the oblivious
	// fallback happens through staleness, not through the config.
	b.Cluster.Feedback = feedback.Config{Enabled: true}

	// Same shape as RunInterference: the victim's span fixes the window.
	// CloseAck gives every connection its late steered packet — the
	// flowlet boundary.
	web := b.poisson()
	workload := sharedPoolWorkload(web, web.Span(webRho), batchPeak)
	workload.ServiceLoads = []float64{webRho, 0}
	workload.CloseAck = true
	variants := []ClusterVariant{
		{Name: "steady"},
		{Name: "churn", Apply: func(c ClusterConfig) ClusterConfig {
			c.Events = churnEvents(churnBy, churnDrainFrac, churnGrowFrac)
			return c
		}},
	}

	raw, _ := b.runner().RunSweep(context.Background(), Sweep{
		Cluster:  b.Cluster,
		Policies: policies,
		Variants: variants,
		Loads:    rhos,
		Seeds:    b.Seeds,
		Workload: workload,
	})
	agg := raw.Aggregate()

	res := PoliciesResult{
		Lambda0:   b.Lambda0,
		WebRho:    webRho,
		BatchRhos: rhos,
		Seeds:     agg.Seeds,
		Services:  workload.serviceNames(),
		Stats:     agg,
	}
	for _, va := range variants {
		res.Variants = append(res.Variants, va.Name)
	}
	// The family's row order, walked here rather than through
	// serviceRows because the "all" rows need their cell's indexes:
	// Aggregate drops CellOutcome.Cluster, so the mechanism counter
	// comes off the raw replicate cells.
	for vi := range variants {
		for li := range rhos {
			for pi := range policies {
				for _, sr := range cellRows(agg.CellAt(pi, vi, li)) {
					row := PoliciesRow{ServiceRow: sr}
					if sr.Service == "all" {
						row.Resteers = meanResteers(raw, pi, vi, li)
					}
					res.Rows = append(res.Rows, row)
				}
			}
		}
	}
	return res
}

// meanResteers averages the flowlet re-steer count over the completed
// replicates of one logical cell.
func meanResteers(raw SweepResult, pi, vi, li int) float64 {
	var resteers float64
	done := completed(raw.Replicates(pi, vi, li))
	for _, cell := range done {
		resteers += float64(cell.Outcome.Cluster.Resteers)
	}
	if len(done) > 0 {
		resteers /= float64(len(done))
	}
	return resteers
}

// Row returns the row for (variant, policy, service) at the batch load
// closest to the requested one.
func (r PoliciesResult) Row(variant, policy, service string, batchRho float64) (PoliciesRow, error) {
	return findRow("policies", r.Rows, PoliciesRow.base, variant, policy, service, nearRho(batchRho))
}

// TotalResteers sums the across-seed mean re-steer counts of the
// policy's cells in the given variant — the experiment's mechanism
// check (> 0 means the flowlet policy really moved established flows).
func (r PoliciesResult) TotalResteers(variant, policy string) float64 {
	var total float64
	for _, row := range r.Rows {
		if row.Variant == variant && row.Policy == policy && row.Service == "all" {
			total += row.Resteers
		}
	}
	return total
}

// PlotFacets renders one facet per (variant, service): p99 vs batch
// load, one series per policy with across-seed ci95 whiskers.
func (r PoliciesResult) PlotFacets() []plot.Facet {
	facets := make([]plot.Facet, 0, len(r.Variants)*len(r.Services))
	for _, variant := range r.Variants {
		for _, svc := range r.Services {
			facets = append(facets, plot.Facet{
				Title:  fmt.Sprintf("Policies[%s]: %s p99 (s) vs batch load (web pinned at rho=%.2f)", variant, svc, r.WebRho),
				Series: policySeries(r.Rows, PoliciesRow.base, variant, svc, ServiceRow.p99AndCI95),
			})
		}
	}
	return facets
}

// TSV is the grid as one table: one row per (variant, batch_rho,
// policy, service), the aggregate first.
func (r PoliciesResult) TSV() TSV {
	cols := append(
		lift(PoliciesRow.base, colVariant, colRho("batch_rho"), colPolicy, colService, colSvcRho, colOffered,
			colMean, colMeanCI, colP99, colP99CI, colOKFrac, colOKCI),
		column[PoliciesRow]{"resteers", func(r PoliciesRow) string { return fmt.Sprintf("%.1f", r.Resteers) }})
	cols = append(cols, lift(PoliciesRow.base, colRefused, colUnfin, colN)...)
	return TSV{Tables: []Table{newTable("policies",
		fmt.Sprintf("Policy ablation with load feedback: web pinned at rho=%.2f, batch swept, steady+churn variants; lambda0=%.1f q/s", r.WebRho, r.Lambda0),
		cols, r.Rows)}}
}
