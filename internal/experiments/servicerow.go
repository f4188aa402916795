// The service-row table: what every study reports. RunMultiService,
// RunInterference, RunPolicies and RunRhoGrid flatten a (variant × load
// × policy) sweep to one row per service plus an "all" aggregate;
// the single-VIP studies (ablations, retransmit, hetero, churn,
// resilience) keep just the "all" row of each cell. They share the row
// type, the flattening, the nearest-load lookup, the by-policy plot
// series, the TSV columns and (for the three shared-pool ones) the
// workload; each keeps its config, its headline accessors, its column
// list and its derived columns.

package experiments

import (
	"fmt"
	"math"
	"slices"
	"strings"
	"time"

	"srlb/internal/metrics"
	"srlb/internal/plot"
	"srlb/internal/testbed"
)

// ServiceRow is one (variant, load, policy, service) outcome aggregated
// across the replication axis; Service "all" is the aggregate over every
// service of the cell.
type ServiceRow struct {
	// Variant is the topology variant ("" for variant-free sweeps) or,
	// for a study of labelled scenarios (runStudy), the scenario's label;
	// Rho the cell's load — the swept knob, for a grid cell its last axis
	// — and LoadVec the cell's per-service load vector (grid sweeps only).
	Variant string
	Rho     float64
	LoadVec []float64
	Policy  string
	Service string
	// Load is the row's service's own resolved load (a pinned victim
	// keeps its ρ while Rho drives the aggressor); Rho on "all" rows.
	Load float64
	// N counts completed replicates; StopReason is the adaptive
	// controller's verdict for the cell ("converged", "max-seeds"; empty
	// under fixed replication).
	N          int
	StopReason string
	// Point estimates are across-seed means of per-seed statistics, the
	// CI95 fields their Student-t 95% half-widths (zero when N == 1 —
	// unknown, not exact).
	Mean, MeanCI95, P50, P50CI95, P95, P99, P99CI95 time.Duration
	OKFrac, OKFracCI95                              float64
	// Offered, Refused and Unfinished are across-seed mean counts.
	Offered, Refused, Unfinished float64
}

// base returns the row itself. Embedding promotes it, so
// InterferenceRow.base and PoliciesRow.base are the accessors the
// helpers below take to reach the shared columns of a derived row type.
func (r ServiceRow) base() ServiceRow { return r }

// meanAndCI95 and p99AndCI95 are the two metrics the family plots.
func (r ServiceRow) meanAndCI95() (y, ci95 time.Duration) { return r.Mean, r.MeanCI95 }
func (r ServiceRow) p99AndCI95() (y, ci95 time.Duration)  { return r.P99, r.P99CI95 }

// cellRows flattens one aggregated cell: the "all" row first (offered =
// Σ per-service offered), then one row per service. A cell with no
// completed replicate yields no rows.
func cellRows(cs CellStats) []ServiceRow {
	if cs.N() == 0 {
		return nil
	}
	row := func(service string, load float64, o OutcomeStats) ServiceRow {
		return ServiceRow{
			Variant: cs.Variant, Rho: cs.Load, LoadVec: cs.LoadVec, Policy: cs.Policy,
			Service: service, Load: load, N: cs.N(), StopReason: cs.StopReason,
			Mean:       secDur(o.Mean.Dist.Mean),
			MeanCI95:   secDur(o.Mean.Dist.ReportedCI95()),
			P50:        secDur(o.Median.Dist.Mean),
			P50CI95:    secDur(o.Median.Dist.ReportedCI95()),
			P95:        secDur(o.P95.Dist.Mean),
			P99:        secDur(o.P99.Dist.Mean),
			P99CI95:    secDur(o.P99.Dist.ReportedCI95()),
			OKFrac:     o.OKFraction.Dist.Mean,
			OKFracCI95: o.OKFraction.Dist.ReportedCI95(),
			Offered:    o.Offered.Dist.Mean,
			Refused:    o.Refused.Dist.Mean,
			Unfinished: o.Unfinished.Dist.Mean,
		}
	}
	// The "all" row's offered count stays the sum of the per-service
	// means rather than the cell's own mean: the two can differ in the
	// last bit, and BENCH_policies.json prints the value in full.
	rows := make([]ServiceRow, 1, 1+len(cs.VIPs))
	rows[0] = row("all", cs.Load, cs.OutcomeStats)
	rows[0].Offered = 0
	for _, vs := range cs.VIPs {
		rows = append(rows, row(vs.Name, vs.Load, vs.OutcomeStats))
		rows[0].Offered += vs.Offered.Dist.Mean
	}
	return rows
}

// serviceRows flattens a sweep in the family's row order: variant, then
// load point, then policy.
func serviceRows(agg SweepStats) []ServiceRow {
	var rows []ServiceRow
	for vi := 0; vi < agg.variants(); vi++ {
		for li := range agg.Loads {
			for pi := range agg.Policies {
				rows = append(rows, cellRows(agg.CellAt(pi, vi, li))...)
			}
		}
	}
	return rows
}

// findRow is the family's Row lookup: among the rows of (variant,
// policy, service), the one nearest by dist — the first on ties.
func findRow[R any](experiment string, rows []R, base func(R) ServiceRow, variant, policy, service string,
	dist func(ServiceRow) float64) (best R, err error) {
	found, bestDist := false, 0.0
	for _, r := range rows {
		row := base(r)
		if row.Variant != variant || row.Policy != policy || row.Service != service {
			continue
		}
		if d := dist(row); !found || d < bestDist {
			best, bestDist, found = r, d, true
		}
	}
	if !found {
		err = fmt.Errorf("%s: no row for (variant %q, policy %q, service %q)", experiment, variant, policy, service)
	}
	return best, err
}

// nearRho is findRow's usual dist: how far a row's cell load is from rho.
func nearRho(rho float64) func(ServiceRow) float64 {
	return func(row ServiceRow) float64 { return math.Abs(row.Rho - rho) }
}

// policySeries draws one service's rows (of one variant) as
// metric-vs-load lines: one plot.Series per policy in first-seen order,
// y in seconds, the across-seed ci95 as the error bar.
func policySeries[R any](rows []R, base func(R) ServiceRow, variant, service string,
	metric func(ServiceRow) (y, ci95 time.Duration)) []plot.Series {
	byPolicy := make(map[string]int)
	var out []plot.Series
	for _, r := range rows {
		row := base(r)
		if row.Variant != variant || row.Service != service {
			continue
		}
		i, ok := byPolicy[row.Policy]
		if !ok {
			i = len(out)
			byPolicy[row.Policy] = i
			out = append(out, plot.Series{Name: row.Policy})
		}
		y, ci95 := metric(row)
		out[i].X = append(out[i].X, row.Rho)
		out[i].Y = append(out[i].Y, y.Seconds())
		out[i].YErr = append(out[i].YErr, ci95.Seconds())
	}
	return out
}

// The family's shared TSV columns. An experiment's TSV method lists the
// ones it prints, in its own order, around its derived columns.
var (
	colVariant = colLabel("variant")
	colPolicy  = column[ServiceRow]{"policy", func(r ServiceRow) string { return r.Policy }}
	colService = column[ServiceRow]{"service", func(r ServiceRow) string { return r.Service }}
	colSvcRho  = column[ServiceRow]{"rho_svc", func(r ServiceRow) string { return fmt.Sprintf("%.2f", r.Load) }}
	colOffered = column[ServiceRow]{"offered", func(r ServiceRow) string { return fmt.Sprintf("%.0f", r.Offered) }}
	colMean    = column[ServiceRow]{"mean_s", func(r ServiceRow) string { return metrics.FormatDuration(r.Mean) }}
	colMeanCI  = column[ServiceRow]{"mean_ci95_s", func(r ServiceRow) string { return metrics.FormatDuration(r.MeanCI95) }}
	colP50     = column[ServiceRow]{"p50_s", func(r ServiceRow) string { return metrics.FormatDuration(r.P50) }}
	colMedian  = column[ServiceRow]{"median_s", colP50.cell}
	colMedCI   = column[ServiceRow]{"median_ci95_s", func(r ServiceRow) string { return metrics.FormatDuration(r.P50CI95) }}
	colP95     = column[ServiceRow]{"p95_s", func(r ServiceRow) string { return metrics.FormatDuration(r.P95) }}
	colP99     = column[ServiceRow]{"p99_s", func(r ServiceRow) string { return metrics.FormatDuration(r.P99) }}
	colP99CI   = column[ServiceRow]{"p99_ci95_s", func(r ServiceRow) string { return metrics.FormatDuration(r.P99CI95) }}
	colOKFrac  = column[ServiceRow]{"ok_frac", func(r ServiceRow) string { return fmt.Sprintf("%.4f", r.OKFrac) }}
	colOKCI    = column[ServiceRow]{"ok_ci95", func(r ServiceRow) string { return fmt.Sprintf("%.4f", r.OKFracCI95) }}
	colRefused = column[ServiceRow]{"refused", func(r ServiceRow) string { return fmt.Sprintf("%.0f", r.Refused) }}
	colUnfin   = column[ServiceRow]{"unfinished", func(r ServiceRow) string { return fmt.Sprintf("%.0f", r.Unfinished) }}
	colN       = column[ServiceRow]{"n", func(r ServiceRow) string { return fmt.Sprint(r.N) }}
	// colRefusedCount is what the studies print: the mean refused count
	// rounded half away from zero (colRefused's %.0f rounds half to even).
	colRefusedCount = column[ServiceRow]{"refused", func(r ServiceRow) string { return fmt.Sprint(r.RefusedCount()) }}
)

// RefusedCount is Refused rounded to a whole count.
func (r ServiceRow) RefusedCount() int { return int(math.Round(r.Refused)) }

// colLabel is the Variant column under the experiment's name for it
// ("variant", "mode", "config").
func colLabel(header string) column[ServiceRow] {
	return column[ServiceRow]{header, func(r ServiceRow) string { return r.Variant }}
}

// colRho is the cell-load column under the experiment's name for it
// ("rho", "batch_rho").
func colRho(header string) column[ServiceRow] {
	return column[ServiceRow]{header, func(r ServiceRow) string { return fmt.Sprintf("%.2f", r.Rho) }}
}

// seedCols is a study's column list at its replication: a single-seed
// table drops what only replicates can fill, the ci95 half-widths and n.
func seedCols[R any](seeds []uint64, cols []column[R]) []column[R] {
	if len(seeds) > 1 {
		return cols
	}
	return slices.DeleteFunc(cols, func(c column[R]) bool {
		return c.header == "n" || strings.Contains(c.header, "ci95")
	})
}

// lift re-types shared columns for a row type that embeds ServiceRow.
func lift[R any](base func(R) ServiceRow, cols ...column[ServiceRow]) []column[R] {
	out := make([]column[R], len(cols))
	for i, c := range cols {
		out[i] = column[R]{c.header, func(r R) string { return c.cell(base(r)) }}
	}
	return out
}

// batchPeak is the batch service's ON-state burst factor.
const batchPeak = 4

// webRho is the web victim's pinned load in RunInterference and
// RunPolicies, as a fraction of the shared pool's capacity: busy but
// unsaturated on its own.
const webRho = 0.55

// batchRhos is the shared-pool aggressor axis of RunInterference,
// RunPolicies and RunRhoGrid: each value is the batch service's own load
// fraction of the pool, so with the web victim at webRho the total runs
// up to overload.
func batchRhos() []float64 { return []float64{0.05, 0.2, 0.35, 0.5} }

// sharedPoolWorkload is the traffic of RunInterference, RunPolicies and
// RunRhoGrid: a Poisson web victim and a bursty batch aggressor
// selecting over the same servers (the one pool, "shared"), the aggressor
// time-bounded to span so every batch load offers over the same window
// and only its intensity varies.
func sharedPoolWorkload(web PoissonService, span time.Duration, peakFactor float64) MultiServiceWorkload {
	return MultiServiceWorkload{
		Services: []ServiceSpec{
			{Name: "web", Workload: web},
			{Name: "batch", Workload: BurstyService{
				Lambda0: web.Lambda0, Horizon: span, PeakFactor: peakFactor,
			}},
		},
		Pools: []testbed.PoolSpec{{Name: "shared"}},
	}
}

// serviceNames lists the workload's service names in spec order.
func (w MultiServiceWorkload) serviceNames() []string {
	names := make([]string, len(w.Services))
	for i, svc := range w.Services {
		names[i] = svc.name(i)
	}
	return names
}
