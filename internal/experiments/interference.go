// Cross-service interference over a shared server pool: a steady
// interactive web service (the victim) and a bursty batch service (the
// aggressor) select over the *same* servers, and the batch load is swept
// while the web load stays pinned — the ρ-matrix regime shared-backend
// deployments (Maglev-style pools, mixed-tenant clusters) operate in.
// The measurement is per-victim degradation: how much of the batch
// surge's queueing does each policy let bleed into the web service's
// tail latency and completion rate. A connection-aware policy (Service
// Hunting) steers web connections around workers the surge has already
// queued on; a random spray cannot see the surge at all.
//
// RunInterference is the canonical instance behind
// `srlb-bench -experiment interference`.

package experiments

import (
	"context"
	"fmt"
	"time"

	"srlb/internal/plot"
)

// InterferenceConfig parameterizes the experiment: the web victim is
// pinned at webRho, the batch aggressor sweeps batchRhos, and RR, SR4
// and SRdyn run each cell.
type InterferenceConfig struct {
	// Base: Queries is the web VIP's arrivals per cell. The batch stream
	// is time-bounded to the web span, so its offered count scales with
	// ρ_b.
	Base
	// Lambda0 is the shared pool's calibrated capacity rate (0 ⇒
	// measured via CalibrateCached on the base cluster).
	Lambda0 float64
}

// InterferenceRow is a ServiceRow — Rho is the aggressor's load (the
// sweep knob); Load is WebRho on the victim's rows — plus the
// degradation columns.
type InterferenceRow struct {
	ServiceRow
	// P99Degradation is this row's p99 over the same (policy, service)
	// p99 at the lowest batch load — the interference multiple the
	// service suffers as the aggressor ramps. 1 at the baseline itself.
	P99Degradation float64
	// OKDrop is the completion-rate degradation vs the same baseline
	// (baseline OKFrac − this OKFrac; 0 at the baseline).
	OKDrop float64
}

// InterferenceResult holds the full ρ-matrix grid.
type InterferenceResult struct {
	Lambda0 float64
	WebRho  float64
	// BatchRhos is the swept aggressor axis; BatchRhos[0] is the
	// degradation baseline.
	BatchRhos []float64
	Seeds     []uint64
	// Services lists the service names in spec order (web, batch).
	Services []string
	// Stats is the underlying replicated sweep — per-VIP aggregates with
	// per-service loads included — the machine-readable artifact's source.
	Stats SweepStats
	Rows  []InterferenceRow
}

// RunInterference executes the experiment.
func RunInterference(cfg InterferenceConfig) InterferenceResult {
	serviceSweepDefaults(&cfg.Base, &cfg.Lambda0)
	rhos := batchRhos()

	// The victim's span fixes the cell's window.
	span := time.Duration(float64(cfg.Queries) / (webRho * cfg.Lambda0) * float64(time.Second))
	workload := sharedPoolWorkload(PoissonService{Lambda0: cfg.Lambda0, Queries: cfg.Queries}, span, batchPeak)
	workload.ServiceLoads = []float64{webRho, 0}

	agg, _ := cfg.runner().RunSweepStats(context.Background(), Sweep{
		Cluster:  cfg.Cluster,
		Policies: studyPolicies(),
		Loads:    rhos,
		Seeds:    cfg.Seeds,
		Workload: workload,
	})

	res := InterferenceResult{
		Lambda0:   cfg.Lambda0,
		WebRho:    webRho,
		BatchRhos: rhos,
		Seeds:     agg.Seeds,
		Services:  workload.serviceNames(),
		Stats:     agg,
	}
	// Baselines (lowest batch load) per (policy, service) for the
	// degradation columns.
	type key struct{ policy, service string }
	baseP99 := make(map[key]float64)
	baseOK := make(map[key]float64)
	for _, sr := range serviceRows(agg) {
		row := InterferenceRow{ServiceRow: sr}
		k := key{row.Policy, row.Service}
		if row.Rho == rhos[0] {
			baseP99[k] = row.P99.Seconds()
			baseOK[k] = row.OKFrac
		}
		if b := baseP99[k]; b > 0 {
			row.P99Degradation = row.P99.Seconds() / b
		}
		// Degradation columns stay zero when the baseline cell never
		// completed (cancelled mid-sweep).
		if base, ok := baseOK[k]; ok {
			row.OKDrop = base - row.OKFrac
		}
		res.Rows = append(res.Rows, row)
	}
	return res
}

// Row returns the row for (policy, service) at the batch load closest to
// the requested one.
func (r InterferenceResult) Row(policy, service string, batchRho float64) (InterferenceRow, error) {
	return findRow("interference", r.Rows, InterferenceRow.base, "", policy, service, nearRho(batchRho))
}

// VictimDegradation returns the web service's p99 interference multiple
// under the given policy at the heaviest batch load — the experiment's
// headline number.
func (r InterferenceResult) VictimDegradation(policy string) (float64, error) {
	if len(r.BatchRhos) == 0 {
		return 0, fmt.Errorf("interference: empty batch axis")
	}
	row, err := r.Row(policy, "web", r.BatchRhos[len(r.BatchRhos)-1])
	if err != nil {
		return 0, err
	}
	if row.P99Degradation == 0 {
		return 0, fmt.Errorf("interference: no baseline p99 for %q", policy)
	}
	return row.P99Degradation, nil
}

// PlotFacets renders the victim view: one facet per service, p99 vs
// batch load, one series per policy with across-seed ci95 whiskers —
// the heatmap-style companion to the TSV's ρ-matrix rows.
func (r InterferenceResult) PlotFacets() []plot.Facet {
	facets := make([]plot.Facet, 0, len(r.Services))
	for _, svc := range r.Services {
		facets = append(facets, plot.Facet{
			Title:  fmt.Sprintf("Interference: %s p99 (s) vs batch load (web pinned at rho=%.2f)", svc, r.WebRho),
			Series: policySeries(r.Rows, InterferenceRow.base, "", svc, ServiceRow.p99AndCI95),
		})
	}
	return facets
}

// TSV is the grid as one table: one row per (batch_rho, policy,
// service), the aggregate first.
func (r InterferenceResult) TSV() TSV {
	cols := append(
		lift(InterferenceRow.base, colRho("batch_rho"), colPolicy, colService, colSvcRho, colOffered,
			colMean, colMeanCI, colP99, colP99CI, colOKFrac, colOKCI),
		column[InterferenceRow]{"p99_degradation", func(r InterferenceRow) string { return fmt.Sprintf("%.2f", r.P99Degradation) }},
		column[InterferenceRow]{"ok_drop", func(r InterferenceRow) string { return fmt.Sprintf("%.4f", r.OKDrop) }})
	cols = append(cols, lift(InterferenceRow.base, colRefused, colUnfin, colN)...)
	return oneTable(
		fmt.Sprintf("Cross-service interference on one shared pool: web pinned at rho=%.2f, batch swept; lambda0=%.1f q/s", r.WebRho, r.Lambda0),
		cols, r.Rows)
}
