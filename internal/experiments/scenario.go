package experiments

import (
	"context"
	"fmt"
	"time"
)

// Scenario is one fully specified experiment cell: a cluster, a policy,
// a workload, and the workload's load point. Scenarios are values — build
// them directly, or let Sweep enumerate a cross product.
type Scenario struct {
	// Name labels the cell in progress lines and artifacts; empty derives
	// "<policy> <workload> load=<load>".
	Name     string
	Cluster  ClusterConfig
	Policy   PolicySpec
	Workload Workload
	// Variant labels the topology variant the Cluster was derived from
	// (set by Sweep.Scenarios; empty for the identity variant).
	Variant string
	// Load is the workload intensity (default 1).
	Load float64
	// LoadVec, when non-nil, is the per-service load vector of a grid
	// sweep (Sweep.LoadGrid): entry d pins service d's load. The
	// workload must be a MultiServiceWorkload; Load then only labels the
	// cell (the grid's last-axis value).
	LoadVec []float64
	// Seed, when nonzero, overrides Cluster.Seed — the replication axis.
	Seed uint64
}

func (sc Scenario) load() float64 {
	if sc.Load == 0 {
		return 1
	}
	return sc.Load
}

// seed returns the effective seed: the Seed override when set, else the
// cluster's.
func (sc Scenario) seed() uint64 {
	if sc.Seed != 0 {
		return sc.Seed
	}
	return sc.Cluster.Seed
}

func (sc Scenario) label() string {
	if sc.Name != "" {
		return sc.Name
	}
	load := fmt.Sprintf("load=%.2f", sc.load())
	if sc.LoadVec != nil {
		load = "load=" + fmtLoadVec(sc.LoadVec)
	}
	if sc.Variant != "" {
		return fmt.Sprintf("%s/%s %s %s", sc.Policy.Name, sc.Variant, sc.Workload.Label(), load)
	}
	return fmt.Sprintf("%s %s %s", sc.Policy.Name, sc.Workload.Label(), load)
}

// fmtLoadVec renders a grid point as "(0.30,0.05)".
func fmtLoadVec(vec []float64) string {
	s := "("
	for i, v := range vec {
		if i > 0 {
			s += ","
		}
		s += fmt.Sprintf("%.2f", v)
	}
	return s + ")"
}

// Run executes the scenario on the calling goroutine. The outcome is a
// pure function of the scenario value: every random stream is derived from
// the effective seed, so any two runs — serial or inside a parallel sweep —
// produce identical results.
func (sc Scenario) Run(ctx context.Context) CellResult {
	sc.Cluster.Seed = sc.seed()
	res := CellResult{
		Name:     sc.label(),
		Policy:   sc.Policy.Name,
		Workload: sc.Workload.Label(),
		Variant:  sc.Variant,
		Load:     sc.load(),
		LoadVec:  sc.LoadVec,
		Seed:     sc.Cluster.Seed,
	}
	start := time.Now()
	if sc.LoadVec != nil {
		mw, ok := sc.Workload.(MultiServiceWorkload)
		if !ok {
			panic(fmt.Sprintf("experiments: workload %q cannot run a load vector (not a MultiServiceWorkload)", sc.Workload.Label()))
		}
		res.Outcome, res.Err = mw.runVector(ctx, sc.Cluster, sc.Policy, sc.LoadVec)
	} else {
		res.Outcome, res.Err = sc.Workload.Run(ctx, sc.Cluster, sc.Policy, sc.load())
	}
	res.Wall = time.Since(start)
	return res
}

// CellResult is the outcome of one scenario.
type CellResult struct {
	// Index is the scenario's position in the Runner's input.
	Index int
	// Name, Policy, Workload, Variant, Load, Seed identify the cell.
	// LoadVec is the per-service load vector for grid-sweep cells (nil
	// for scalar cells).
	Name     string
	Policy   string
	Workload string
	Variant  string
	Load     float64
	LoadVec  []float64
	Seed     uint64
	// Outcome is the workload's measurement (partial when Err != nil,
	// zero when the cell was skipped after cancellation).
	Outcome CellOutcome
	// Wall is the host wall-clock cost of the cell. It is the only field
	// that is not a deterministic function of the scenario.
	Wall time.Duration
	// Err is non-nil when the cell was cancelled before or during its run.
	Err error
}
