package experiments

import (
	"context"
	"math"
)

// Stop reasons recorded on CellStats.StopReason by adaptive replication.
const (
	// StopConverged: the cell's relative CI95 reached its target with at
	// least MinSeeds completed replicates.
	StopConverged = "converged"
	// StopMaxSeeds: the cell hit the MaxSeeds replicate cap before its
	// interval converged.
	StopMaxSeeds = "max-seeds"
)

// adaptiveSeedSalt decorrelates the seeds the adaptive controller
// derives beyond Sweep.Seeds from the seeds DeriveSeeds(Cluster.Seed, n)
// would hand a fixed sweep.
const adaptiveSeedSalt = 0xada9f17e5eed5a17

// Adaptive configures adaptive replication for Runner.RunSweepStats.
// Every logical cell first runs MinSeeds replicates; then, round by
// round, each unconverged cell receives one more seed until its
// relative CI95 (the Student-t half-width of the per-seed mean
// response time, divided by the mean) drops below CITarget or the cell
// reaches MaxSeeds. Cells at policy-crossover boundaries — load points
// where the best policy by mean response time differs from a
// grid-adjacent point — are held to the tighter target
// CITarget/BoundaryFactor, so the budget saved on easy cells
// concentrates where the curves actually cross.
//
// Determinism: stop decisions are taken at round barriers from
// completed-seed data only, evaluated in canonical cell order, and the
// seed a cell receives in round k is a pure function of the sweep
// value. Results are therefore byte-identical at any worker count,
// like every other Runner path.
type Adaptive struct {
	// CITarget is the relative CI95 stop threshold (e.g. 0.2 = ±20% of
	// the mean); <= 0 disables adaptive replication entirely (fixed
	// replication over Sweep.Seeds, the default).
	CITarget float64
	// MinSeeds is the mandatory replicate floor before any stop
	// decision. Values below 3 are raised to 3: a Student-t interval
	// over fewer replicates is too wide to gate on, and with one
	// replicate the interval is unknown outright (stats.MeanCI95
	// returns +Inf for n < 2 — the bug pair this floor guards).
	MinSeeds int
	// MaxSeeds caps any cell's replicates (default max(2×MinSeeds,
	// len(Sweep.Seeds))). The fixed-replication budget a sweep is
	// compared against is cells × MaxSeeds.
	MaxSeeds int
	// BoundaryFactor divides CITarget for boundary-adjacent cells
	// (default 2; 1 disables the refinement).
	BoundaryFactor float64
}

// enabled reports whether the config turns adaptive replication on.
func (a Adaptive) enabled() bool { return a.CITarget > 0 }

func (a Adaptive) withDefaults(seedCount int) Adaptive {
	if a.MinSeeds < 3 {
		a.MinSeeds = 3
	}
	if a.MaxSeeds == 0 {
		a.MaxSeeds = 2 * a.MinSeeds
		if seedCount > a.MaxSeeds {
			a.MaxSeeds = seedCount
		}
	}
	if a.MaxSeeds < a.MinSeeds {
		a.MaxSeeds = a.MinSeeds
	}
	if a.BoundaryFactor == 0 {
		a.BoundaryFactor = 2
	}
	if a.BoundaryFactor < 1 {
		a.BoundaryFactor = 1
	}
	return a
}

// relCI returns the relative CI95 of the cell's mean response time:
// half-width over |mean|. Fewer than two completed replicates yield
// +Inf (unknown interval — stats.MeanCI95), as does a zero mean with a
// nonzero half-width, so degenerate cells can never read as converged.
func relCI(cs CellStats) float64 {
	d := cs.Mean.Dist
	if d.Mean == 0 {
		if d.CI95 == 0 {
			return 0
		}
		return math.Inf(1)
	}
	return d.CI95 / math.Abs(d.Mean)
}

// RunSweepAdaptive executes the sweep under the adaptive replication
// controller and returns both the ragged raw result (per-cell seed
// lists in CellSeeds) and its aggregate with per-cell StopReason.
// RunSweepStats delegates here when Sweep.Adaptive is enabled; use
// this entry point directly when the raw replicates are needed too.
// The error mirrors Run's: non-nil only on cancellation, with the
// partial cells still returned (interrupted cells keep an empty
// StopReason).
func (r Runner) RunSweepAdaptive(ctx context.Context, s Sweep) (SweepResult, SweepStats, error) {
	s = s.withDefaults()
	a := s.Adaptive.withDefaults(len(s.Seeds))

	// The seed universe: the sweep's own seeds first (deduplicated, in
	// order), grown to MaxSeeds with derived seeds that collide with
	// none of them. Every cell's round-k replicate uses seeds[k], so
	// cells share common random numbers and the schedule is a pure
	// function of the sweep value.
	seeds := dedupSeeds(s.Seeds)
	if len(seeds) < a.MaxSeeds {
		seeds = ExtendSeeds(seeds, s.Cluster.Seed^adaptiveSeedSalt, a.MaxSeeds-len(seeds))
	} else {
		seeds = seeds[:a.MaxSeeds]
	}

	base := s.cellScenarios()
	nCells := len(base)
	perCell := make([][]CellResult, nCells)
	reason := make([]string, nCells)
	scheduled := make([]int, nCells)

	var runErr error
	for runErr == nil {
		// Build this round's batch: every open cell gets its next seed
		// (the full MinSeeds floor in round 0). Batch order is canonical
		// cell order, so Runner.Run's input-order determinism carries
		// straight through.
		var batch []Scenario
		var owner []int
		for ci, sc := range base {
			if reason[ci] != "" {
				continue
			}
			want := a.MinSeeds
			if scheduled[ci] > 0 {
				want = scheduled[ci] + 1
			}
			for k := scheduled[ci]; k < want; k++ {
				rep := sc
				rep.Seed = seeds[k]
				batch = append(batch, rep)
				owner = append(owner, ci)
			}
			scheduled[ci] = want
		}
		if len(batch) == 0 {
			break
		}
		results, err := r.Run(ctx, batch)
		for i, res := range results {
			perCell[owner[i]] = append(perCell[owner[i]], res)
		}
		if err != nil {
			runErr = err
			break
		}

		// Barrier: stop decisions from completed data only, evaluated in
		// canonical cell order — independent of worker scheduling.
		boundary := boundaryCells(s, base, perCell)
		for ci := range base {
			if reason[ci] != "" {
				continue
			}
			cs := newCellStats(perCell[ci])
			target := a.CITarget
			if boundary[ci] {
				target /= a.BoundaryFactor
			}
			switch {
			case cs.N() >= a.MinSeeds && relCI(cs) <= target:
				reason[ci] = StopConverged
			case scheduled[ci] >= a.MaxSeeds:
				reason[ci] = StopMaxSeeds
			}
		}
	}

	res := SweepResult{
		Policies: s.Policies, Variants: s.Variants,
		Loads: s.loadLabels(), LoadVecs: s.LoadGrid.Points(),
		Seeds:     seeds,
		CellSeeds: make([][]uint64, nCells),
	}
	for ci, reps := range perCell {
		cellSeeds := make([]uint64, len(reps))
		for k, rep := range reps {
			cellSeeds[k] = rep.Seed
		}
		res.CellSeeds[ci] = cellSeeds
		res.Cells = append(res.Cells, reps...)
	}
	agg := res.Aggregate()
	for ci := range agg.Cells {
		agg.Cells[ci].StopReason = reason[ci]
	}
	return res, agg, runErr
}

// dedupSeeds drops duplicate (and zero — it would alias Cluster.Seed)
// entries, preserving first-occurrence order.
func dedupSeeds(seeds []uint64) []uint64 {
	seen := make(map[uint64]bool, len(seeds))
	out := make([]uint64, 0, len(seeds))
	for _, s := range seeds {
		if s == 0 || seen[s] {
			continue
		}
		seen[s] = true
		out = append(out, s)
	}
	return out
}

// boundaryCells marks the cells sitting on policy-crossover boundaries:
// for each (variant, load point), the best policy by across-seed mean
// response time is compared against each neighboring load point's best
// (grid adjacency under LoadGrid, ±1 along the load axis otherwise);
// where they differ, every policy's cell at both points is marked. The
// input data is the completed replicates so far; evaluation order is
// canonical, keeping the result worker-count independent.
func boundaryCells(s Sweep, base []Scenario, perCell [][]CellResult) []bool {
	nPolicies, nVariants, nLoads := len(s.Policies), len(s.Variants), s.loadPoints()
	cellIdx := func(pi, vi, li int) int { return (pi*nVariants+vi)*nLoads + li }

	marked := make([]bool, len(base))
	if nPolicies < 2 || nLoads < 2 {
		return marked
	}
	for vi := 0; vi < nVariants; vi++ {
		best := make([]int, nLoads)
		for li := 0; li < nLoads; li++ {
			best[li] = -1
			bestMean := math.Inf(1)
			for pi := 0; pi < nPolicies; pi++ {
				cs := newCellStats(perCell[cellIdx(pi, vi, li)])
				if cs.N() == 0 {
					continue
				}
				if m := cs.Mean.Dist.Mean; m < bestMean {
					bestMean, best[li] = m, pi
				}
			}
		}
		for li := 0; li < nLoads; li++ {
			if best[li] < 0 {
				continue
			}
			for _, ni := range loadNeighbors(s, li) {
				if best[ni] < 0 || best[ni] == best[li] {
					continue
				}
				for pi := 0; pi < nPolicies; pi++ {
					marked[cellIdx(pi, vi, li)] = true
					marked[cellIdx(pi, vi, ni)] = true
				}
			}
		}
	}
	return marked
}

// loadNeighbors returns the load-axis indexes adjacent to point li:
// grid adjacency (±1 along exactly one axis) for grid sweeps, ±1 for
// scalar ones.
func loadNeighbors(s Sweep, li int) []int {
	if !s.LoadGrid.Empty() {
		return s.LoadGrid.Neighbors(li)
	}
	var out []int
	if li > 0 {
		out = append(out, li-1)
	}
	if li < len(s.Loads)-1 {
		out = append(out, li+1)
	}
	return out
}
