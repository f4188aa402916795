// ρ-grid sweep: the four-way policy ablation {random2, chash2,
// wleastload, flowlet} run over a full web-ρ × batch-ρ load matrix on
// one shared pool, instead of pinning the web victim at a single load
// the way RunInterference and RunPolicies do. Every (ρ_w, ρ_b) grid
// point is one logical cell with its own replication axis, so the
// output is a per-policy heatmap of the victim's tail with per-cell
// confidence intervals attached.
//
// The grid is where adaptive replication (Sweep.Adaptive) earns its
// keep: the matrix multiplies cells by |web axis|, and most of them —
// deep in the underloaded corner, or hopelessly saturated — converge at
// the minimum replicate count, while the cells near policy crossovers
// soak up the saved budget. The experiment keeps the Runner's
// determinism contract: the grid, the per-cell seed counts and every
// statistic are byte-identical at 1 worker and N.
//
// RunRhoGrid is the canonical instance behind
// `srlb-bench -experiment rhogrid`.

package experiments

import (
	"context"
	"fmt"
	"io"
	"math"
	"time"

	"srlb/internal/feedback"
	"srlb/internal/plot"
)

// RhoGridConfig parameterizes the experiment.
type RhoGridConfig struct {
	// Base: Queries sizes the fixed measurement window — every cell
	// simulates span = Queries/Lambda0 seconds (the ρ=1 window), so the
	// web VIP offers ≈ ρ_w × Queries arrivals and all grid cells measure
	// the same wall of simulated time. Adaptive runs extend Seeds to
	// Adaptive.MaxSeeds.
	Base
	// Lambda0 is the shared pool's calibrated capacity rate (0 ⇒
	// measured via CalibrateCached on the base cluster).
	Lambda0 float64
	// WebRhos is the web (victim) load axis (default {0.3, 0.55, 0.8}).
	WebRhos []float64
	// BatchRhos is the batch (aggressor) load axis (default
	// {0.05, 0.2, 0.35, 0.5}).
	BatchRhos []float64
	// BatchPeak is the batch service's ON-state burst factor (default 4).
	BatchPeak float64
	// FlowletGap is the flowlet policy's idle gap (0 ⇒
	// selection.DefaultFlowletGap). Used only when Policies is empty.
	FlowletGap time.Duration
	// Feedback overrides the telemetry plane's tuning; Enabled is forced
	// on (the load-aware schemes need it).
	Feedback feedback.Config
	// Policies defaults to the four-way ablation
	// {Random2, CHash2, WeightedLeastLoadPolicy, FlowletPolicy}.
	Policies []PolicySpec
	// Adaptive configures adaptive replication (CITarget <= 0 runs the
	// fixed Seeds axis everywhere).
	Adaptive Adaptive
}

// RhoGridResult holds the full matrix.
type RhoGridResult struct {
	Lambda0   float64
	WebRhos   []float64
	BatchRhos []float64
	// Seeds is the full seed universe (up to Adaptive.MaxSeeds for
	// adaptive runs); per-cell completion counts live on the rows.
	Seeds []uint64
	// Services lists the service names in spec order (web, batch).
	Services []string
	// MaxSeeds is the per-cell replicate cap the run was budgeted
	// against (len(Seeds)); the fixed-replication budget is
	// grid cells × MaxSeeds replicates.
	MaxSeeds int
	// Adaptive reports whether the run used adaptive replication.
	Adaptive bool
	// Stats is the underlying replicated sweep — the machine-readable
	// artifact's source (schema v9 adds load_vec, per-cell n and
	// stop_reason).
	Stats SweepStats
	// Rows holds one row per (web-ρ, batch-ρ, policy, service):
	// LoadVec is the grid point {web-ρ, batch-ρ}, Rho its batch-ρ, and
	// Load the service's own ρ (the larger of the two on "all" rows).
	Rows []ServiceRow
}

// RunRhoGrid executes the experiment.
func RunRhoGrid(cfg RhoGridConfig) RhoGridResult {
	serviceSweepDefaults(&cfg.Base, &cfg.Lambda0, &cfg.BatchRhos, &cfg.BatchPeak)
	if len(cfg.WebRhos) == 0 {
		cfg.WebRhos = []float64{0.3, 0.55, 0.8}
	}
	if len(cfg.Policies) == 0 {
		cfg.Policies = ablationPolicies(cfg.FlowletGap)
	}
	cfg.Cluster.Feedback = cfg.Feedback
	cfg.Cluster.Feedback.Enabled = true

	// Unlike RunPolicies, the web load is swept too, so no single
	// victim span exists; instead every cell simulates the same fixed
	// window (the ρ=1 span) with both services time-bounded to it.
	span := time.Duration(float64(cfg.Queries) / cfg.Lambda0 * float64(time.Second))
	workload := sharedPoolWorkload(PoissonService{Lambda0: cfg.Lambda0, Horizon: span}, span, cfg.BatchPeak)
	workload.CloseAck = true

	// RunSweepStats grows the replication axis adaptively when
	// cfg.Adaptive is enabled.
	agg, _ := cfg.runner().RunSweepStats(context.Background(), Sweep{
		Cluster:  cfg.Cluster,
		Policies: cfg.Policies,
		LoadGrid: LoadGrid{
			AxisNames: []string{"web", "batch"},
			Axes:      [][]float64{cfg.WebRhos, cfg.BatchRhos},
		},
		Seeds:    cfg.Seeds,
		Adaptive: cfg.Adaptive,
		Workload: workload,
	})

	res := RhoGridResult{
		Lambda0:   cfg.Lambda0,
		WebRhos:   cfg.WebRhos,
		BatchRhos: cfg.BatchRhos,
		Seeds:     agg.Seeds,
		Services:  workload.serviceNames(),
		MaxSeeds:  len(agg.Seeds),
		Adaptive:  cfg.Adaptive.enabled(),
		Stats:     agg,
		Rows:      serviceRows(agg),
	}
	for i, row := range res.Rows {
		if row.Service == "all" {
			res.Rows[i].Load = math.Max(row.LoadVec[0], row.LoadVec[1])
		}
	}
	return res
}

// Row returns the row for (policy, service) at the grid point closest
// to (webRho, batchRho).
func (r RhoGridResult) Row(policy, service string, webRho, batchRho float64) (ServiceRow, error) {
	return findRow("rhogrid", r.Rows, ServiceRow.base, "", policy, service, func(row ServiceRow) float64 {
		return math.Abs(row.LoadVec[0]-webRho) + math.Abs(row.LoadVec[1]-batchRho)
	})
}

// TotalReplicates sums the completed replicates over the grid's "all"
// rows — the measurement budget the run actually spent. Compare with
// FixedBudget to see what adaptive replication saved.
func (r RhoGridResult) TotalReplicates() int {
	total := 0
	for _, row := range r.Rows {
		if row.Service == "all" {
			total += row.N
		}
	}
	return total
}

// FixedBudget is the replicate count a fixed-replication run over the
// same grid would spend: cells × MaxSeeds.
func (r RhoGridResult) FixedBudget() int {
	return len(r.WebRhos) * len(r.BatchRhos) * len(r.Stats.Policies) * r.MaxSeeds
}

// gridMetric projects a row onto the named heatmap metric.
func gridMetric(row ServiceRow, metric string) float64 {
	switch metric {
	case "p99":
		return row.P99.Seconds()
	case "mean":
		return row.Mean.Seconds()
	case "ok":
		return row.OKFrac
	case "n":
		return float64(row.N)
	default:
		panic(fmt.Sprintf("rhogrid: unknown heatmap metric %q", metric))
	}
}

// Heatmaps renders the victim view of one metric as a per-policy facet
// sequence: each facet is the web service's metric over the
// web-ρ (rows) × batch-ρ (columns) grid, all facets pinned to one
// shared color scale so glyphs compare across policies. metric is one
// of "p99", "mean", "ok" or "n" (per-cell replicate count — the
// adaptive controller's budget map; service-independent).
func (r RhoGridResult) Heatmaps(metric string) []plot.Heatmap {
	service := "web"
	unit := "s"
	switch metric {
	case "ok":
		unit = "frac"
	case "n":
		unit = "replicates"
	}
	lo, hi := math.Inf(1), math.Inf(-1)
	zs := make([][][]float64, len(r.Stats.Policies))
	for pi := range r.Stats.Policies {
		z := make([][]float64, len(r.WebRhos))
		for wi := range r.WebRhos {
			z[wi] = make([]float64, len(r.BatchRhos))
			for bi := range r.BatchRhos {
				z[wi][bi] = math.NaN()
			}
		}
		zs[pi] = z
	}
	policyIdx := make(map[string]int, len(r.Stats.Policies))
	for pi, spec := range r.Stats.Policies {
		policyIdx[spec.Name] = pi
	}
	axisIdx := func(axis []float64, v float64) int {
		for i, a := range axis {
			if a == v {
				return i
			}
		}
		return -1
	}
	for _, row := range r.Rows {
		if row.Service != service {
			continue
		}
		pi, ok := policyIdx[row.Policy]
		wi, bi := axisIdx(r.WebRhos, row.LoadVec[0]), axisIdx(r.BatchRhos, row.LoadVec[1])
		if !ok || wi < 0 || bi < 0 {
			continue
		}
		v := gridMetric(row, metric)
		zs[pi][wi][bi] = v
		lo = math.Min(lo, v)
		hi = math.Max(hi, v)
	}
	if lo > hi {
		lo, hi = 0, 0
	}
	out := make([]plot.Heatmap, 0, len(r.Stats.Policies))
	for pi, spec := range r.Stats.Policies {
		out = append(out, plot.Heatmap{
			Title:  fmt.Sprintf("RhoGrid[%s]: %s %s (%s) over web-rho × batch-rho", spec.Name, service, metric, unit),
			XLabel: "batch rho",
			YLabel: "web rho",
			X:      r.BatchRhos,
			Y:      r.WebRhos,
			Z:      zs[pi],
			Min:    lo,
			Max:    hi,
		})
	}
	return out
}

// WriteTSV renders the matrix: one row per (web_rho, batch_rho,
// policy, service), the aggregate first.
func (r RhoGridResult) WriteTSV(w io.Writer) error {
	mode := "fixed"
	if r.Adaptive {
		mode = "adaptive"
	}
	return writeTable(w,
		fmt.Sprintf("Rho-grid policy ablation: web-rho × batch-rho matrix on one shared pool, %s replication (budget %d/%d replicates); lambda0=%.1f q/s",
			mode, r.TotalReplicates(), r.FixedBudget(), r.Lambda0),
		[]column[ServiceRow]{
			{"web_rho", func(row ServiceRow) string { return fmt.Sprintf("%.2f", row.LoadVec[0]) }},
			colRho("batch_rho"), colPolicy, colService, colSvcRho, colN,
			{"stop_reason", func(row ServiceRow) string {
				if row.StopReason == "" {
					return "-"
				}
				return row.StopReason
			}},
			colOffered, colMean, colMeanCI, colP99, colP99CI, colOKFrac, colOKCI, colRefused, colUnfin,
		}, r.Rows)
}
