package experiments

import "fmt"

// ClusterVariant derives a topology variant from a sweep's base cluster
// — the topology/event axis. Variants sweep what ClusterConfig alone
// cannot express as a scalar: replica counts, miss-fallback schemes,
// lifecycle-event schedules (see RunFailover and RunChurn).
type ClusterVariant struct {
	// Name labels the variant in cell names and artifacts. Empty names
	// the identity variant.
	Name string
	// Apply derives the variant's cluster from the base (nil = identity).
	Apply func(ClusterConfig) ClusterConfig
}

// LoadGrid is a vector load axis: Axes[d] lists the values swept along
// dimension d and the grid is their cross product, enumerated row-major
// (the last axis varies fastest). Each grid point is a per-service
// ρ-vector that rides the workload's per-service load plumbing
// (MultiServiceWorkload.ServiceLoads): point[d] pins service d's load,
// so axis d must align with service d and every value must be > 0 — a
// zero would read as "track the scalar load" (ServiceLoads' 0) and
// silently collapse the grid.
type LoadGrid struct {
	// Axes[d] lists dimension d's swept values, each > 0.
	Axes [][]float64
}

// Empty reports whether the grid has no axes (scalar sweep).
func (g LoadGrid) Empty() bool { return len(g.Axes) == 0 }

// Size returns the number of grid points (product of axis lengths).
func (g LoadGrid) Size() int {
	if g.Empty() {
		return 0
	}
	n := 1
	for _, ax := range g.Axes {
		n *= len(ax)
	}
	return n
}

// Points enumerates the cross product row-major: the last axis varies
// fastest, so a web×batch grid lists all batch values at the first web
// value, then the next web value, … Point order is the sweep's load
// axis order.
func (g LoadGrid) Points() [][]float64 {
	if g.Empty() {
		return nil
	}
	dims := len(g.Axes)
	out := make([][]float64, 0, g.Size())
	idx := make([]int, dims)
	for {
		pt := make([]float64, dims)
		for d, ax := range g.Axes {
			pt[d] = ax[idx[d]]
		}
		out = append(out, pt)
		d := dims - 1
		for d >= 0 {
			idx[d]++
			if idx[d] < len(g.Axes[d]) {
				break
			}
			idx[d] = 0
			d--
		}
		if d < 0 {
			return out
		}
	}
}

// Neighbors returns the grid-point indexes adjacent to point i: those
// differing by ±1 along exactly one axis. Used by adaptive replication
// to locate policy-crossover boundaries.
func (g LoadGrid) Neighbors(i int) []int {
	if g.Empty() {
		return nil
	}
	// Decompose i into per-axis indexes (row-major, last axis fastest).
	dims := len(g.Axes)
	idx := make([]int, dims)
	rem := i
	for d := dims - 1; d >= 0; d-- {
		idx[d] = rem % len(g.Axes[d])
		rem /= len(g.Axes[d])
	}
	stride := make([]int, dims)
	s := 1
	for d := dims - 1; d >= 0; d-- {
		stride[d] = s
		s *= len(g.Axes[d])
	}
	var out []int
	for d := 0; d < dims; d++ {
		if idx[d] > 0 {
			out = append(out, i-stride[d])
		}
		if idx[d] < len(g.Axes[d])-1 {
			out = append(out, i+stride[d])
		}
	}
	return out
}

// Sweep enumerates the cross product policies × variants × loads × seeds
// over one workload — "run policy set P over workload W on cluster C (and
// its topology variants), swept over load points, replicated over seeds"
// as a single value. Runner.RunSweep runs it.
type Sweep struct {
	Cluster ClusterConfig
	// Policies defaults to PaperPolicies().
	Policies []PolicySpec
	// Variants is the topology/event axis (default: the identity
	// variant alone).
	Variants []ClusterVariant
	// Loads are the workload intensities to sweep (default {1}).
	// Mutually exclusive with LoadGrid.
	Loads []float64
	// LoadGrid, when non-empty, replaces the scalar Loads axis with the
	// cross product of per-service load vectors: one load point per grid
	// point, each pinning the services of a MultiServiceWorkload (the
	// only workload that runs a load vector). The scalar load recorded for a grid cell is its last-axis value (the
	// innermost knob), mirroring how the batch axis labels interference
	// rows.
	LoadGrid LoadGrid
	// Seeds is the replication axis (default {Cluster.Seed}).
	Seeds []uint64
	// Adaptive configures adaptive replication (zero value = fixed
	// replication over Seeds).
	Adaptive Adaptive
	// Workload is required.
	Workload Workload
}

func (s Sweep) withDefaults() Sweep {
	if len(s.Policies) == 0 {
		s.Policies = PaperPolicies()
	}
	if len(s.Variants) == 0 {
		s.Variants = []ClusterVariant{{}}
	}
	if len(s.Loads) == 0 && s.LoadGrid.Empty() {
		s.Loads = []float64{1}
	}
	if !s.LoadGrid.Empty() && len(s.Loads) > 0 {
		panic("experiments: Sweep.Loads and Sweep.LoadGrid are mutually exclusive")
	}
	if len(s.Seeds) == 0 {
		s.Seeds = []uint64{s.Cluster.Seed}
	}
	return s
}

// loadPoints returns the load-axis length: grid points when a LoadGrid
// is set, scalar loads otherwise.
func (s Sweep) loadPoints() int {
	if !s.LoadGrid.Empty() {
		return s.LoadGrid.Size()
	}
	return len(s.Loads)
}

// loadLabels returns the scalar label of every load point: Loads for a
// scalar sweep, each point's last-axis value for a grid sweep.
func (s Sweep) loadLabels() []float64 {
	if s.LoadGrid.Empty() {
		return s.Loads
	}
	pts := s.LoadGrid.Points()
	out := make([]float64, len(pts))
	for i, pt := range pts {
		out[i] = pt[len(pt)-1]
	}
	return out
}

// cellScenarios expands the policy × variant × load-point axes (no seed
// axis) in canonical order: policy-major, then variant, then load. The
// defaults must already be applied. These are the logical cells
// Runner.RunSweep replicates over the seed axis; cellIndex inverts the
// order.
func (s Sweep) cellScenarios() []Scenario {
	grid := s.LoadGrid.Points()
	labels := s.loadLabels()
	out := make([]Scenario, 0, len(s.Policies)*len(s.Variants)*s.loadPoints())
	for _, spec := range s.Policies {
		for _, va := range s.Variants {
			cluster := s.Cluster
			if va.Apply != nil {
				cluster = va.Apply(cluster)
			}
			for li := 0; li < s.loadPoints(); li++ {
				sc := Scenario{
					Cluster:  cluster,
					Policy:   spec,
					Variant:  va.Name,
					Workload: s.Workload,
					Load:     labels[li],
				}
				if grid != nil {
					sc.LoadVec = grid[li]
				}
				out = append(out, sc)
			}
		}
	}
	return out
}

// DeriveSeeds expands a base seed into n well-separated, pairwise
// distinct, nonzero seeds for the replication axis (SplitMix64 over
// the base). The guard matters: a derived 0 would fall back to
// Cluster.Seed inside Scenario.seed(), and a duplicate would silently
// shrink the effective replication count — both bias confidence
// intervals narrow, which is exactly what an adaptive early stopper
// must not see. Zero or already-emitted values are skipped by
// advancing the underlying stream until a fresh seed appears.
func DeriveSeeds(base uint64, n int) []uint64 {
	return ExtendSeeds(nil, base, n)
}

// ExtendSeeds appends n seeds derived from base to existing, skipping
// zero and anything already present (in existing or among the new
// draws), and returns the combined slice. The adaptive replication
// controller uses it to grow a user-supplied seed list to MaxSeeds
// without colliding with the seeds already spent.
func ExtendSeeds(existing []uint64, base uint64, n int) []uint64 {
	seen := make(map[uint64]bool, len(existing)+n)
	for _, s := range existing {
		seen[s] = true
	}
	out := append([]uint64(nil), existing...)
	x := base
	for added := 0; added < n; {
		x += 0x9e3779b97f4a7c15
		z := x
		z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
		z = (z ^ (z >> 27)) * 0x94d049bb133111eb
		z ^= z >> 31
		if z == 0 || seen[z] {
			continue
		}
		seen[z] = true
		out = append(out, z)
		added++
	}
	return out
}

// SweepResult holds a sweep's replicates by the sweep's axes.
type SweepResult struct {
	Policies []PolicySpec
	Variants []ClusterVariant
	Loads    []float64
	// LoadVecs is the vector load axis of a grid sweep (one per-service
	// ρ-vector per load point, in load-axis order); nil for scalar
	// sweeps. When set, Loads holds each point's scalar label.
	LoadVecs [][]float64
	// Seeds is the replication axis: Sweep.Seeds, or under adaptive
	// replication the seed universe every cell draws a prefix of.
	Seeds []uint64
	// Cells holds every replicate, grouped by logical cell in canonical
	// order (policy-major, then variant, then load) and in seed order
	// within a cell. Under fixed replication each cell owns len(Seeds)
	// adjacent entries; under adaptive replication it owns as many as
	// it ran.
	Cells []CellResult
	// spans[ci] locates logical cell ci's replicates in Cells.
	spans []cellSpan
}

// cellSpan locates one logical cell's replicates, Cells[lo:hi], and
// records why its replication stopped (StopConverged, StopMaxSeeds;
// empty under fixed replication).
type cellSpan struct {
	lo, hi int
	stop   string
}

// cellIndex returns the canonical index of logical cell (pi, vi, li)
// among policies × variants × loads cells: policy-major, then variant,
// then load, a result without a variant axis having the identity
// variant alone. An out-of-range index panics with a description
// instead of silently reading a neighboring cell.
func cellIndex(policies, variants, loads, pi, vi, li int) int {
	variants = max(variants, 1)
	if pi < 0 || pi >= policies || vi < 0 || vi >= variants || li < 0 || li >= loads {
		panic(fmt.Sprintf(
			"experiments: cell (policy %d, variant %d, load %d) out of range for %d policies × %d variants × %d loads",
			pi, vi, li, policies, variants, loads))
	}
	return (pi*variants+vi)*loads + li
}

// Cell returns the result at (policy pi, load li, seed si) of the first
// (for variant-free sweeps, the only) topology variant.
func (r SweepResult) Cell(pi, li, si int) CellResult {
	return r.CellAt(pi, 0, li, si)
}

// Replicates returns the replicate results of logical cell (pi, vi,
// li), in seed order.
func (r SweepResult) Replicates(pi, vi, li int) []CellResult {
	sp := r.spans[cellIndex(len(r.Policies), len(r.Variants), len(r.Loads), pi, vi, li)]
	return r.Cells[sp.lo:sp.hi]
}

// CellAt returns the result at (policy pi, variant vi, load li, seed
// si). All four indexes are bounds-checked, si against the cell's own
// replicate count, and an out-of-range index panics with a description
// instead of silently returning a neighboring cell.
func (r SweepResult) CellAt(pi, vi, li, si int) CellResult {
	reps := r.Replicates(pi, vi, li)
	if si < 0 || si >= len(reps) {
		panic(fmt.Sprintf(
			"experiments: seed index %d out of range for cell (policy %d, variant %d, load %d) with %d replicates",
			si, pi, vi, li, len(reps)))
	}
	return reps[si]
}
