package experiments

import "math"

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

// Adaptive configures adaptive replication for Runner.RunSweep.
// Every logical cell first runs MinSeeds replicates; then, round by
// round, each unconverged cell receives one more seed until its
// relative CI95 (the Student-t half-width of the per-seed mean
// response time, divided by the mean) drops below CITarget or the cell
// reaches MaxSeeds. Cells at policy-crossover boundaries — load points
// where the best policy by mean response time differs from a
// grid-adjacent point — are held to the tighter target
// CITarget/boundaryFactor, so the budget saved on easy cells
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
	// MaxSeeds caps any cell's replicates (default max(2×MinSeeds,
	// len(Sweep.Seeds)); a cap below MinSeeds is raised to it). The
	// fixed-replication budget a sweep is compared against is cells ×
	// MaxSeeds.
	MaxSeeds int
}

// MinSeeds is the mandatory replicate floor before any stop decision: a
// Student-t interval over fewer replicates is too wide to gate on, and
// with one replicate the interval is unknown outright (stats.MeanCI95
// returns +Inf for n < 2 — the bug pair this floor guards).
const MinSeeds = 3

// boundaryFactor divides CITarget for boundary-adjacent cells.
const boundaryFactor = 2

// enabled reports whether the config turns adaptive replication on.
func (a Adaptive) enabled() bool { return a.CITarget > 0 }

func (a Adaptive) withDefaults(seedCount int) Adaptive {
	if a.MaxSeeds == 0 {
		a.MaxSeeds = max(2*MinSeeds, seedCount)
	}
	a.MaxSeeds = max(a.MaxSeeds, MinSeeds)
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

// replication returns how the sweep replicates its logical cells: the
// seeds, how many of them round 0 runs, and the stop rule of the later
// rounds. Fixed replication runs all of Seeds in round 0 and has no
// stop rule. Adaptive replication runs MinSeeds first, then closes each
// cell once it converges or reaches MaxSeeds. s must carry its
// defaults.
func (s Sweep) replication() ([]uint64, int, stopRule) {
	if !s.Adaptive.enabled() {
		return s.Seeds, len(s.Seeds), nil
	}
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
	stop := func(reps [][]CellResult, reason []string) {
		boundary := boundaryCells(s, reps)
		for ci, cell := range reps {
			if reason[ci] != "" {
				continue
			}
			cs := newCellStats(cell)
			target := a.CITarget
			if boundary[ci] {
				target /= boundaryFactor
			}
			switch {
			case cs.N() >= MinSeeds && relCI(cs) <= target:
				reason[ci] = StopConverged
			case len(cell) >= a.MaxSeeds:
				reason[ci] = StopMaxSeeds
			}
		}
	}
	return seeds, MinSeeds, stop
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
func boundaryCells(s Sweep, reps [][]CellResult) []bool {
	nPolicies, nVariants, nLoads := len(s.Policies), len(s.Variants), s.loadPoints()
	cellIdx := func(pi, vi, li int) int { return cellIndex(nPolicies, nVariants, nLoads, pi, vi, li) }

	marked := make([]bool, len(reps))
	if nPolicies < 2 || nLoads < 2 {
		return marked
	}
	for vi := 0; vi < nVariants; vi++ {
		best := make([]int, nLoads)
		for li := 0; li < nLoads; li++ {
			best[li] = -1
			bestMean := math.Inf(1)
			for pi := 0; pi < nPolicies; pi++ {
				cs := newCellStats(reps[cellIdx(pi, vi, li)])
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
