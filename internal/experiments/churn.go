package experiments

import (
	"context"
	"fmt"

	"srlb/internal/testbed"
)

// ChurnResult holds the full grid.
type ChurnResult struct {
	Lambda0 float64
	ChurnBy int
	Seeds   []uint64
	// Rows holds one ServiceRow per (rho, policy, mode), the mode —
	// "steady" or "churn" — in Variant.
	Rows []ServiceRow
}

// churnDrainFrac and churnGrowFrac place the drain and re-add phases on
// the arrival span.
const churnDrainFrac, churnGrowFrac = 0.3, 0.65

// RunChurn runs the pool-churn / autoscale experiment: mid-run, part of
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
//
// The loads are 0.5, 0.75 and 0.95 of the base pool's capacity, under
// RR, SR4 and SRdyn; a third of the pool (at least one server) drains
// at churnDrainFrac of the arrival span and is re-added at
// churnGrowFrac.
func RunChurn(b Base) ChurnResult {
	b = b.resolved()
	rhos := []float64{0.5, 0.75, 0.95}
	policies := studyPolicies()
	churnBy := max(1, b.Cluster.Servers/3)

	res := ChurnResult{Lambda0: b.Lambda0, ChurnBy: churnBy}
	// The schedule is rate-relative: each phase is a fraction of the
	// arrival span, staggered by 1% per server, so the same two variants
	// serve every load point of one sweep — each cell resolves the
	// fractions against its own span.
	agg, _ := b.runner().RunSweepStats(context.Background(), Sweep{
		Cluster:  b.Cluster,
		Policies: policies,
		Variants: []ClusterVariant{
			{Name: "steady"},
			{Name: "churn", Apply: func(c ClusterConfig) ClusterConfig {
				c.Events = churnEvents(churnBy, churnDrainFrac, churnGrowFrac)
				return c
			}},
		},
		Loads:    rhos,
		Seeds:    b.Seeds,
		Workload: OneService(b.poisson()),
	})
	res.Seeds = agg.Seeds
	// The artifact's row order: rho, then policy, then mode.
	for li := range rhos {
		for pi := range policies {
			for vi := range agg.Variants {
				res.Rows = append(res.Rows, cellRows(agg.CellAt(pi, vi, li))...)
			}
		}
	}
	return res
}

// churnEvents builds the drain + re-add schedule on the cell's first
// pool: churnBy drains starting at drainFrac of the arrival span, churnBy
// adds at growFrac, each phase staggered by 1% of the span per server.
// Fractions clamp to 1 so large pools (or late phases) stay valid
// schedules — the tail of a long stagger lands at span end.
func churnEvents(churnBy int, drainFrac, growFrac float64) []testbed.Event {
	frac := func(f float64) float64 {
		if f > 1 {
			return 1
		}
		return f
	}
	events := make([]testbed.Event, 0, 2*churnBy)
	for g := 0; g < churnBy; g++ {
		events = append(events, testbed.DrainServer(frac(drainFrac+float64(g)*0.01), 0, g))
	}
	for g := 0; g < churnBy; g++ {
		events = append(events, testbed.AddServer(frac(growFrac+float64(g)*0.01), 0))
	}
	return events
}

// TSV is the grid as one table: one row per (rho, policy, mode).
func (r ChurnResult) TSV() TSV {
	return oneTable(
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
