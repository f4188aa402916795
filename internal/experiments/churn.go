package experiments

import (
	"context"
	"fmt"
	"io"

	"srlb/internal/testbed"
)

// ChurnConfig is the pool-churn / autoscale experiment: mid-run, part of
// the server pool is drained (scale-in under load — established flows
// finish, no new connections land there) and later replaced by freshly
// added servers (scale-out). Each load point runs two topology variants
// under identical arrivals:
//
//   - "steady" — the fixed pool, the baseline every figure uses.
//   - "churn"  — the drain/add schedule above.
//
// The measurement is how much of the churn window's capacity squeeze
// each policy passes through to clients: Service Hunting steers new
// connections around the drained servers' queues and onto fresh ones by
// construction, while the random spray only finds them by luck.
type ChurnConfig struct {
	Base
	Lambda0 float64
	// Rhos are the normalized loads, relative to the BASE pool's
	// capacity (default {0.5, 0.75, 0.95}).
	Rhos []float64
	// ChurnBy is how many servers drain and are later re-added (default
	// a third of the pool, at least 1).
	ChurnBy int
	// GrowFrac places the re-add phase on the arrival span (default
	// 0.65); the drain starts at churnDrainFrac of it.
	GrowFrac float64
	// Policies defaults to {RR, SR4, SRdyn}.
	Policies []PolicySpec
}

// ChurnResult holds the full grid.
type ChurnResult struct {
	Lambda0 float64
	ChurnBy int
	Seeds   []uint64
	// Rows holds one ServiceRow per (rho, policy, mode), the mode —
	// "steady" or "churn" — in Variant.
	Rows []ServiceRow
}

// churnDrainFrac places the drain phase on the arrival span.
const churnDrainFrac = 0.3

// RunChurn executes the experiment.
func RunChurn(cfg ChurnConfig) ChurnResult {
	cfg.Base = cfg.Base.withDefaults()
	if len(cfg.Rhos) == 0 {
		cfg.Rhos = []float64{0.5, 0.75, 0.95}
	}
	if cfg.ChurnBy == 0 {
		cfg.ChurnBy = max(1, cfg.Cluster.Servers/3)
	}
	if cfg.GrowFrac == 0 {
		cfg.GrowFrac = 0.65
	}
	if len(cfg.Policies) == 0 {
		cfg.Policies = []PolicySpec{RR(), SRc(4), SRdyn()}
	}
	cfg.Lambda0 = cfg.Cluster.lambda0(cfg.Lambda0)

	res := ChurnResult{Lambda0: cfg.Lambda0, ChurnBy: cfg.ChurnBy}
	// The schedule is rate-relative: each phase is a fraction of the
	// arrival span, staggered by 1% per server, so the same two variants
	// serve every load point of one sweep — each cell resolves the
	// fractions against its own span (historically this ran one sweep
	// per rho with hand-resolved absolute times).
	agg, _ := cfg.runner().RunSweepStats(context.Background(), Sweep{
		Cluster:  cfg.Cluster,
		Policies: cfg.Policies,
		Variants: []ClusterVariant{
			{Name: "steady"},
			{Name: "churn", Apply: func(c ClusterConfig) ClusterConfig {
				c.Events = churnEvents(cfg.ChurnBy, churnDrainFrac, cfg.GrowFrac)
				return c
			}},
		},
		Loads:    cfg.Rhos,
		Seeds:    cfg.Seeds,
		Workload: OneService(PoissonService{Lambda0: cfg.Lambda0, Queries: cfg.Queries}),
	})
	res.Seeds = agg.Seeds
	// The artifact's row order: rho, then policy, then mode.
	for li := range cfg.Rhos {
		for pi := range cfg.Policies {
			for vi := range agg.Variants {
				res.Rows = append(res.Rows, cellRows(agg.CellAt(pi, vi, li))...)
			}
		}
	}
	return res
}

// churnEvents builds the rate-relative drain + re-add schedule on the
// cell's first pool: churnBy drains starting at
// drainFrac of the arrival span, churnBy adds at growFrac, each phase
// staggered by 1% of the span per server. Fractions clamp to 1 so large
// pools (or late phases) stay valid schedules — the tail of a long
// stagger lands at span end, where the absolute-time schedule used to
// fire it after the last arrival.
func churnEvents(churnBy int, drainFrac, growFrac float64) []testbed.Event {
	frac := func(f float64) float64 {
		if f > 1 {
			return 1
		}
		return f
	}
	events := make([]testbed.Event, 0, 2*churnBy)
	for g := 0; g < churnBy; g++ {
		events = append(events, testbed.DrainServer(0, 0, g).AtFraction(frac(drainFrac+float64(g)*0.01)))
	}
	for g := 0; g < churnBy; g++ {
		events = append(events, testbed.AddServer(0, 0).AtFraction(frac(growFrac+float64(g)*0.01)))
	}
	return events
}

// WriteTSV renders the grid: one row per (rho, policy, mode).
func (r ChurnResult) WriteTSV(w io.Writer) error {
	return writeTable(w,
		fmt.Sprintf("Pool churn/autoscale: drain+re-add %d servers mid-run; lambda0=%.1f q/s", r.ChurnBy, r.Lambda0),
		[]column[ServiceRow]{
			colRho("rho"), colPolicy, colLabel("mode"), colMean, colMeanCI, colP99,
			colOKFrac, colOKCI, colRefused, colUnfin, colN,
		}, r.Rows)
}

// ChurnPenalty returns the churn/steady mean-RT ratio for the policy at
// the rho closest to the requested load — "how much slower did clients
// get because the pool churned".
func (r ChurnResult) ChurnPenalty(policyName string, rho float64) (float64, error) {
	steady, err := findRow("churn", r.Rows, ServiceRow.base, "steady", policyName, "all", nearRho(rho))
	if err != nil {
		return 0, err
	}
	churn, err := findRow("churn", r.Rows, ServiceRow.base, "churn", policyName, "all", nearRho(rho))
	if err != nil {
		return 0, err
	}
	if steady.Rho != churn.Rho || steady.Mean == 0 || churn.Mean == 0 {
		return 0, fmt.Errorf("churn: no complete steady/churn pair for %q near rho=%.2f", policyName, rho)
	}
	return float64(churn.Mean) / float64(steady.Mean), nil
}
