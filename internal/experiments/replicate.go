package experiments

import (
	"context"
	"fmt"
	"math"
	"time"

	"srlb/internal/plot"
	"srlb/internal/stats"
)

// OutcomeStats is the block of replicated metrics a logical cell and
// each of its services report alike: one stats.Replicated per metric —
// the raw per-seed values plus the Dist of their float64 projection
// (durations project to seconds).
//
// Over a single seed it degenerates gracefully: the point estimates
// equal the underlying run's and every CI95 is +Inf ("unknown", not
// "exact" — see the stats package documentation; serialization
// boundaries report the sentinel as 0 via stats.Dist.ReportedCI95).
type OutcomeStats struct {
	// Mean, Median, P95, P99 summarize the per-seed response-time
	// statistics of the completed queries.
	Mean, Median, P95, P99 stats.Replicated[time.Duration]
	// OKFraction, Offered, Refused and Unfinished summarize the per-seed
	// completion accounting; Offered == completed + Refused + Unfinished
	// in every replicate.
	OKFraction stats.Replicated[float64]
	Offered    stats.Replicated[int]
	Refused    stats.Replicated[int]
	Unfinished stats.Replicated[int]
}

// CellStats aggregates the replicates of one logical cell — the same
// (policy, workload, load) run under every seed of the sweep's
// replication axis — into mean ± 95% CI per metric (the embedded
// OutcomeStats, over all the cell's queries).
type CellStats struct {
	// Name, Policy, Workload, Variant, Load identify the logical cell.
	Name     string
	Policy   string
	Workload string
	Variant  string
	Load     float64
	// LoadVec is the cell's per-service load vector for grid sweeps
	// (Sweep.LoadGrid); nil for scalar sweeps.
	LoadVec []float64
	// StopReason records why adaptive replication stopped adding seeds
	// to this cell (StopConverged, StopMaxSeeds); empty under fixed
	// replication.
	StopReason string
	// Seeds lists the replicates that ran to completion. Cancelled
	// replicates — skipped or interrupted mid-run — are dropped, so N()
	// can be smaller than the sweep's seed count.
	Seeds []uint64
	OutcomeStats
	// VIPs breaks the aggregates down by service for cells of two or
	// more services (one VIPStats per service, aligned with
	// CellOutcome.PerVIP); nil for a one-service cell, whose only VIP is
	// the aggregate above, and for the §VI replays.
	VIPs []VIPStats
	// Wall is the summed host wall-clock over the replicates.
	Wall time.Duration
}

// VIPStats is one service's share of a CellStats: the same per-metric
// mean ± CI aggregation, restricted to queries addressed to that VIP.
type VIPStats struct {
	// Name is the service name; Workload labels its arrival process.
	Name     string
	Workload string
	// Load is the service's own resolved load point (identical across
	// replicates — the per-service load axis of schema v5).
	Load float64
	OutcomeStats
}

// N returns the number of completed replicates.
func (c CellStats) N() int { return len(c.Seeds) }

// MeanRT returns the across-seed mean of per-seed mean response times.
func (c CellStats) MeanRT() time.Duration { return secDur(c.Mean.Dist.Mean) }

// MeanCI95 returns the CI half-width of MeanRT (0 when the interval is
// unknown, i.e. fewer than two completed replicates).
func (c CellStats) MeanCI95() time.Duration { return secDur(c.Mean.Dist.ReportedCI95()) }

// secDur converts seconds to a duration. Non-finite input — the
// "unknown interval" sentinel of stats.Dist.CI95 at n < 2 — maps to 0
// rather than overflowing into a garbage duration.
func secDur(sec float64) time.Duration {
	if math.IsInf(sec, 0) || math.IsNaN(sec) {
		return 0
	}
	return time.Duration(sec * float64(time.Second))
}

// durSeconds is the projection used for response-time metrics.
func durSeconds(d time.Duration) float64 { return d.Seconds() }

// newOutcomeStats folds one outcome per completed replicate into the
// replicated metrics — the one fold behind CellStats and VIPStats.
func newOutcomeStats(reps []VIPOutcome) OutcomeStats {
	intVal := func(n int) float64 { return float64(n) }
	return OutcomeStats{
		Mean:       stats.NewReplicated(perReplicate(reps, func(o VIPOutcome) time.Duration { return o.RT.Mean() }), durSeconds),
		Median:     stats.NewReplicated(perReplicate(reps, func(o VIPOutcome) time.Duration { return o.RT.Median() }), durSeconds),
		P95:        stats.NewReplicated(perReplicate(reps, func(o VIPOutcome) time.Duration { return o.RT.Quantile(0.95) }), durSeconds),
		P99:        stats.NewReplicated(perReplicate(reps, func(o VIPOutcome) time.Duration { return o.RT.Quantile(0.99) }), durSeconds),
		OKFraction: stats.NewReplicated(perReplicate(reps, VIPOutcome.OKFraction), func(f float64) float64 { return f }),
		Offered:    stats.NewReplicated(perReplicate(reps, func(o VIPOutcome) int { return o.Offered }), intVal),
		Refused:    stats.NewReplicated(perReplicate(reps, func(o VIPOutcome) int { return o.Refused }), intVal),
		Unfinished: stats.NewReplicated(perReplicate(reps, func(o VIPOutcome) int { return o.Unfinished }), intVal),
	}
}

// perReplicate projects one value out of every replicate's outcome.
func perReplicate[T any](reps []VIPOutcome, pick func(VIPOutcome) T) []T {
	out := make([]T, len(reps))
	for i, o := range reps {
		out[i] = pick(o)
	}
	return out
}

// completed returns the replicates that count. One with an Err was
// never started or was cancelled mid-run, and its truncated recorder
// would silently skew whatever it is folded into.
func completed(reps []CellResult) []CellResult {
	out := make([]CellResult, 0, len(reps))
	for _, c := range reps {
		if c.Err == nil {
			out = append(out, c)
		}
	}
	return out
}

// newCellStats folds replicate cells (same logical cell, different
// seeds) into a CellStats over the completed ones; a group with no
// completed cell yields a CellStats with N() == 0 and zero metrics.
func newCellStats(cells []CellResult) CellStats {
	var cs CellStats
	for _, c := range cells {
		cs.Wall += c.Wall
	}
	done := completed(cells)
	totals := make([]VIPOutcome, len(done))
	for i, c := range done {
		if i == 0 {
			cs.Name, cs.Policy, cs.Workload, cs.Variant, cs.Load = c.Name, c.Policy, c.Workload, c.Variant, c.Load
			cs.LoadVec = c.LoadVec
		}
		cs.Seeds = append(cs.Seeds, c.Seed)
		totals[i] = c.Outcome.total()
	}
	cs.OutcomeStats = newOutcomeStats(totals)
	cs.VIPs = newVIPStats(done)
	return cs
}

// newVIPStats folds the per-VIP breakdowns of the completed replicates —
// a workload produces the same services in the same order in every
// replicate, so VIP i aligns across cells. A one-service cell yields
// nil: this is the one guard that keeps the service rows (cellRows) and
// the JSON cells' "vips" from printing a breakdown that only repeats
// the aggregate.
func newVIPStats(completed []CellResult) []VIPStats {
	if len(completed) == 0 || len(completed[0].Outcome.PerVIP) < 2 {
		return nil
	}
	out := make([]VIPStats, len(completed[0].Outcome.PerVIP))
	reps := make([]VIPOutcome, len(completed))
	for vi := range out {
		for i, c := range completed {
			reps[i] = c.Outcome.PerVIP[vi]
		}
		out[vi] = VIPStats{
			Name:         reps[0].Name,
			Workload:     reps[0].Workload,
			Load:         reps[0].Load,
			OutcomeStats: newOutcomeStats(reps),
		}
	}
	return out
}

// SweepStats is a SweepResult with the replication axis folded away:
// one CellStats per (policy, variant, load), each aggregating the
// replicates its cell ran.
type SweepStats struct {
	Policies []PolicySpec
	Variants []ClusterVariant
	Loads    []float64
	// LoadVecs is the vector load axis of a grid sweep (nil for scalar
	// sweeps); when set, Loads holds each point's scalar label.
	LoadVecs [][]float64
	// Seeds is the sweep's replication axis (the requested seeds — for
	// an adaptive run, the full seed universe up to MaxSeeds; a cell's
	// own Seeds field lists the ones that actually ran and completed).
	Seeds []uint64
	// Cells holds one aggregate per (policy, variant, load),
	// policy-major — the same order as SweepResult with the seed axis
	// removed.
	Cells []CellStats
}

// variants returns the variant-axis length (1 for pre-variant results).
func (s SweepStats) variants() int {
	if len(s.Variants) == 0 {
		return 1
	}
	return len(s.Variants)
}

// Cell returns the aggregate at (policy pi, load li) of the first (for
// variant-free sweeps, the only) topology variant.
func (s SweepStats) Cell(pi, li int) CellStats {
	return s.CellAt(pi, 0, li)
}

// CellAt returns the aggregate at (policy pi, variant vi, load li).
// Out-of-range indexes panic with a description instead of silently
// reading a neighboring cell.
func (s SweepStats) CellAt(pi, vi, li int) CellStats {
	return s.Cells[cellIndex(len(s.Policies), len(s.Variants), len(s.Loads), pi, vi, li)]
}

// Aggregate folds the replication axis: each logical cell's replicates
// become one CellStats, which also carries the reason the cell's
// replication stopped. This is the step that turns a replicated sweep
// into per-cell mean ± CI.
func (r SweepResult) Aggregate() SweepStats {
	agg := SweepStats{
		Policies: r.Policies,
		Variants: r.Variants,
		Loads:    r.Loads,
		LoadVecs: r.LoadVecs,
		Seeds:    r.Seeds,
		Cells:    make([]CellStats, len(r.spans)),
	}
	for ci, sp := range r.spans {
		agg.Cells[ci] = newCellStats(r.Cells[sp.lo:sp.hi])
		agg.Cells[ci].StopReason = sp.stop
	}
	return agg
}

// PlotSeries renders the aggregate as mean-RT-vs-load lines — one
// plot.Series per (policy, variant), y in seconds, with the per-point
// Student-t 95% half-width as the error bar. Replicated sweeps thus
// plot their CIs; single-seed sweeps degrade to plain lines (an
// unknown half-width reports as zero). Grid sweeps should render as
// heatmaps instead — here every grid row collapses onto the last-axis
// label.
func (s SweepStats) PlotSeries() []plot.Series {
	out := make([]plot.Series, 0, len(s.Policies)*s.variants())
	for pi, spec := range s.Policies {
		for vi := 0; vi < s.variants(); vi++ {
			name := spec.Name
			if len(s.Variants) > vi && s.Variants[vi].Name != "" {
				name = fmt.Sprintf("%s/%s", spec.Name, s.Variants[vi].Name)
			}
			ser := plot.Series{
				Name: name,
				X:    make([]float64, 0, len(s.Loads)),
				Y:    make([]float64, 0, len(s.Loads)),
				YErr: make([]float64, 0, len(s.Loads)),
			}
			for li, load := range s.Loads {
				cs := s.CellAt(pi, vi, li)
				if cs.N() == 0 {
					continue
				}
				ser.X = append(ser.X, load)
				ser.Y = append(ser.Y, cs.Mean.Dist.Mean)
				ser.YErr = append(ser.YErr, cs.Mean.Dist.ReportedCI95())
			}
			out = append(out, ser)
		}
	}
	return out
}

// RunSweepStats is RunSweep followed by Aggregate: the one-call way to
// get per-cell mean ± CI out of a Sweep with several Seeds (or an
// enabled Adaptive). The error mirrors RunSweep's: non-nil only on
// cancellation, with the aggregates over the cells that did finish.
func (r Runner) RunSweepStats(ctx context.Context, s Sweep) (SweepStats, error) {
	res, err := r.RunSweep(ctx, s)
	return res.Aggregate(), err
}
