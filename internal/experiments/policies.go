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
	"io"
	"time"

	"srlb/internal/feedback"
	"srlb/internal/plot"
)

// PoliciesConfig parameterizes the experiment.
type PoliciesConfig struct {
	// Base: Queries is the web VIP's arrivals per cell.
	Base
	// Lambda0 is the shared pool's calibrated capacity rate (0 ⇒
	// measured via CalibrateCached on the base cluster).
	Lambda0 float64
	// WebRho is the victim's pinned load fraction (default 0.55).
	WebRho float64
	// BatchRhos is the aggressor axis (default {0.05, 0.2, 0.35, 0.5}).
	BatchRhos []float64
	// BatchPeak is the batch service's ON-state burst factor (default 4).
	BatchPeak float64
	// FlowletGap is the flowlet policy's idle gap (0 ⇒
	// selection.DefaultFlowletGap). Used only when Policies is empty.
	FlowletGap time.Duration
	// Feedback overrides the telemetry plane's tuning; Enabled is forced
	// on (the ablation is about the plane).
	Feedback feedback.Config
	// ChurnBy is how many shared-pool servers the churn variant drains
	// mid-run and later re-adds (default a third of the pool, at least 1).
	ChurnBy int
	// Policies defaults to AblationPolicies() with FlowletGap applied.
	Policies []PolicySpec
}

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

// RunPolicies executes the experiment.
func RunPolicies(cfg PoliciesConfig) PoliciesResult {
	serviceSweepDefaults(&cfg.Base, &cfg.Lambda0, &cfg.BatchRhos, &cfg.BatchPeak)
	if cfg.WebRho == 0 {
		cfg.WebRho = 0.55
	}
	if cfg.ChurnBy == 0 {
		cfg.ChurnBy = max(1, cfg.Cluster.Servers/3)
	}
	if len(cfg.Policies) == 0 {
		cfg.Policies = ablationPolicies(cfg.FlowletGap)
	}
	// The ablation is about the telemetry plane — it is always on here;
	// per-policy degradation to the oblivious fallback happens through
	// staleness, not through the config.
	cfg.Cluster.Feedback = cfg.Feedback
	cfg.Cluster.Feedback.Enabled = true

	// Same shape as RunInterference: the victim's span fixes the window.
	// CloseAck gives every connection its late steered packet — the
	// flowlet boundary.
	span := time.Duration(float64(cfg.Queries) / (cfg.WebRho * cfg.Lambda0) * float64(time.Second))
	workload := sharedPoolWorkload(PoissonService{Lambda0: cfg.Lambda0, Queries: cfg.Queries}, span, cfg.BatchPeak)
	workload.ServiceLoads = []ServiceLoad{{Fixed: cfg.WebRho}, {}}
	workload.CloseAck = true
	variants := []ClusterVariant{
		{Name: "steady"},
		{Name: "churn", Apply: func(c ClusterConfig) ClusterConfig {
			c.Events = churnEvents("shared", cfg.ChurnBy, 0.3, 0.65)
			return c
		}},
	}

	raw, _ := cfg.runner().RunSweep(context.Background(), Sweep{
		Cluster:  cfg.Cluster,
		Policies: cfg.Policies,
		Variants: variants,
		Loads:    cfg.BatchRhos,
		Seeds:    cfg.Seeds,
		Workload: workload,
	})
	agg := raw.Aggregate()

	res := PoliciesResult{
		Lambda0:   cfg.Lambda0,
		WebRho:    cfg.WebRho,
		BatchRhos: cfg.BatchRhos,
		Seeds:     agg.Seeds,
		Services:  workload.serviceNames(),
		Stats:     agg,
	}
	for _, va := range variants {
		res.Variants = append(res.Variants, va.Name)
	}
	// The family's row order, walked here rather than through
	// serviceRows because the "all" rows need their cell's indexes:
	// Aggregate drops CellOutcome.Extra, so the mechanism counter comes
	// off the raw replicate cells.
	for vi := range variants {
		for li := range cfg.BatchRhos {
			for pi := range cfg.Policies {
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
	var done int
	for _, cell := range raw.Replicates(pi, vi, li) {
		if ms, ok := cell.Outcome.Extra.(MultiServiceStats); ok && cell.Err == nil {
			resteers += float64(ms.Resteers)
			done++
		}
	}
	if done > 0 {
		resteers /= float64(done)
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

// Table is the grid as one row table: one row per (variant, batch_rho,
// policy, service), the aggregate first.
func (r PoliciesResult) Table() Table {
	cols := append(
		lift(PoliciesRow.base, colVariant, colRho("batch_rho"), colPolicy, colService, colSvcRho, colOffered,
			colMean, colMeanCI, colP99, colP99CI, colOKFrac, colOKCI),
		column[PoliciesRow]{"resteers", func(r PoliciesRow) string { return fmt.Sprintf("%.1f", r.Resteers) }})
	cols = append(cols, lift(PoliciesRow.base, colRefused, colUnfin, colN)...)
	return newTable("policies",
		fmt.Sprintf("Policy ablation with load feedback: web pinned at rho=%.2f, batch swept, steady+churn variants; lambda0=%.1f q/s", r.WebRho, r.Lambda0),
		cols, r.Rows)
}

// WriteTSV renders the grid's Table.
func (r PoliciesResult) WriteTSV(w io.Writer) error { return r.Table().WriteTSV(w) }
