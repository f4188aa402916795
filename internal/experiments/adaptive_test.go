package experiments

import (
	"context"
	"math"
	"reflect"
	"strings"
	"testing"

	"srlb/internal/plot"
	"srlb/internal/testbed"
)

func mustPanic(t *testing.T, name string, f func()) {
	t.Helper()
	defer func() {
		if recover() == nil {
			t.Fatalf("%s: expected a panic", name)
		}
	}()
	f()
}

func adaptiveTestSweep(seed uint64, a Adaptive) Sweep {
	return Sweep{
		Cluster:  ClusterConfig{Seed: seed, Servers: 4},
		Policies: []PolicySpec{RR(), SRc(4)},
		Loads:    []float64{0.5, 0.85},
		Adaptive: a,
		Workload: PoissonWorkload{Lambda0: 80, Queries: 600},
	}
}

// stripCellWall zeroes the only nondeterministic CellStats field so
// aggregates can be compared across worker counts.
func stripCellWall(cells []CellStats) []CellStats {
	out := make([]CellStats, len(cells))
	for i, c := range cells {
		c.Wall = 0
		out[i] = c
	}
	return out
}

// TestAdaptiveNeverStopsBeforeMinSeeds is the regression test for the
// CI-width bug pair: stats.MeanCI95 used to report 0 (an exact-looking
// interval) for a single replicate, and the controller accepted
// MinSeeds of 1 — together letting a one-seed cell "converge"
// instantly. Now a sub-2 interval is +Inf and the floor clamps to 3,
// so even a huge CITarget cannot stop a cell before three completed
// replicates.
func TestAdaptiveNeverStopsBeforeMinSeeds(t *testing.T) {
	s := adaptiveTestSweep(3, Adaptive{CITarget: 1e9, MinSeeds: 1, MaxSeeds: 5})
	res, agg, err := Runner{Workers: 2}.RunSweepAdaptive(context.Background(), s)
	if err != nil {
		t.Fatal(err)
	}
	for ci, seeds := range res.CellSeeds {
		if len(seeds) != 3 {
			t.Fatalf("cell %d ran %d replicates; the MinSeeds floor must force 3 even when the target is trivially wide", ci, len(seeds))
		}
	}
	for _, cs := range agg.Cells {
		if cs.N() != 3 {
			t.Fatalf("cell %q aggregated %d replicates, want 3", cs.Name, cs.N())
		}
		if cs.StopReason != StopConverged {
			t.Fatalf("cell %q stop reason = %q, want %q", cs.Name, cs.StopReason, StopConverged)
		}
	}

	// The mechanism itself: one completed replicate must carry an
	// unknown (+Inf) relative CI, never a finite one the stopper could
	// compare against a target.
	rep := Scenario{
		Cluster:  s.Cluster,
		Policy:   RR(),
		Workload: s.Workload,
		Load:     0.5,
		Seed:     7,
	}.Run(context.Background())
	if one := newCellStats([]CellResult{rep}); !math.IsInf(relCI(one), 1) {
		t.Fatalf("relCI over one replicate = %v, want +Inf (the old zero is what allowed premature stops)", relCI(one))
	}
}

// TestAdaptiveDeterminism1vs4 pins the controller's determinism
// contract: the per-cell seed schedule, every replicate result, the
// stop reasons and the aggregates are byte-identical at 1 worker and 4.
func TestAdaptiveDeterminism1vs4(t *testing.T) {
	s := adaptiveTestSweep(11, Adaptive{CITarget: 0.3, MinSeeds: 3, MaxSeeds: 5})
	ctx := context.Background()
	res1, agg1, err := Runner{Workers: 1}.RunSweepAdaptive(ctx, s)
	if err != nil {
		t.Fatal(err)
	}
	res4, agg4, err := Runner{Workers: 4}.RunSweepAdaptive(ctx, s)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(res1.CellSeeds, res4.CellSeeds) {
		t.Fatalf("per-cell seed schedules differ across worker counts:\n1 worker: %v\n4 workers: %v", res1.CellSeeds, res4.CellSeeds)
	}
	if !reflect.DeepEqual(stripWall(res1.Cells), stripWall(res4.Cells)) {
		t.Fatal("adaptive replicate results differ across worker counts")
	}
	if !reflect.DeepEqual(stripCellWall(agg1.Cells), stripCellWall(agg4.Cells)) {
		t.Fatal("adaptive aggregates (incl. stop reasons) differ across worker counts")
	}
	// And the schedule must actually be adaptive-shaped: every cell
	// within [MinSeeds, MaxSeeds], sharing the common seed universe
	// prefix (common random numbers).
	for ci, seeds := range res1.CellSeeds {
		if len(seeds) < 3 || len(seeds) > 5 {
			t.Fatalf("cell %d ran %d replicates, outside [3, 5]", ci, len(seeds))
		}
		if !reflect.DeepEqual(seeds, res1.Seeds[:len(seeds)]) {
			t.Fatalf("cell %d seeds %v are not a prefix of the universe %v", ci, seeds, res1.Seeds)
		}
	}
}

// TestSweepResultRaggedCellAt is the regression test for the silent
// flat-index arithmetic: CellAt on a ragged result must resolve each
// cell against its own replicate count, and any out-of-range axis or
// seed index must panic instead of returning a neighboring cell.
func TestSweepResultRaggedCellAt(t *testing.T) {
	mk := func(name string, seed uint64) CellResult {
		return CellResult{Name: name, Seed: seed}
	}
	res := SweepResult{
		Policies: []PolicySpec{{Name: "a"}, {Name: "b"}},
		Loads:    []float64{0.5, 0.9},
		Seeds:    []uint64{1, 2, 3},
		CellSeeds: [][]uint64{
			{1, 2},    // (a, 0.5)
			{1, 2, 3}, // (a, 0.9)
			{1},       // (b, 0.5)
			{1, 2},    // (b, 0.9)
		},
		Cells: []CellResult{
			mk("a-lo", 1), mk("a-lo", 2),
			mk("a-hi", 1), mk("a-hi", 2), mk("a-hi", 3),
			mk("b-lo", 1),
			mk("b-hi", 1), mk("b-hi", 2),
		},
	}
	if c := res.CellAt(0, 0, 1, 2); c.Name != "a-hi" || c.Seed != 3 {
		t.Fatalf("CellAt(0,0,1,2) = %q seed %d, want a-hi seed 3", c.Name, c.Seed)
	}
	if c := res.CellAt(1, 0, 0, 0); c.Name != "b-lo" || c.Seed != 1 {
		t.Fatalf("CellAt(1,0,0,0) = %q seed %d, want b-lo seed 1 (the old flat math read a neighbor here)", c.Name, c.Seed)
	}
	if c := res.CellAt(1, 0, 1, 1); c.Name != "b-hi" || c.Seed != 2 {
		t.Fatalf("CellAt(1,0,1,1) = %q seed %d, want b-hi seed 2", c.Name, c.Seed)
	}
	if got := res.SeedsAt(1, 0, 0); !reflect.DeepEqual(got, []uint64{1}) {
		t.Fatalf("SeedsAt(1,0,0) = %v, want the cell's own single seed", got)
	}
	mustPanic(t, "seed index past the cell's own count", func() { res.CellAt(0, 0, 0, 2) })
	mustPanic(t, "policy index out of range", func() { res.CellAt(2, 0, 0, 0) })
	mustPanic(t, "load index out of range", func() { res.CellAt(0, 0, 2, 0) })
	mustPanic(t, "negative seed index", func() { res.CellAt(0, 0, 0, -1) })

	// Uniform (non-ragged) results must bounds-check the same way.
	uni := SweepResult{
		Policies: []PolicySpec{{Name: "a"}},
		Loads:    []float64{0.5},
		Seeds:    []uint64{1, 2},
		Cells:    []CellResult{mk("u", 1), mk("u", 2)},
	}
	if c := uni.CellAt(0, 0, 0, 1); c.Seed != 2 {
		t.Fatalf("uniform CellAt seed = %d, want 2", c.Seed)
	}
	mustPanic(t, "uniform seed index out of range", func() { uni.CellAt(0, 0, 0, 2) })
	mustPanic(t, "uniform variant index out of range", func() { uni.CellAt(0, 1, 0, 0) })
}

// TestDeriveSeedsAdversarial is the regression test for the seed
// derivation bugs: a base chosen so the raw SplitMix64 stream emits 0
// (which would silently alias Cluster.Seed downstream) must still
// yield nonzero, pairwise distinct seeds; and ExtendSeeds must never
// collide with the seeds it extends.
func TestDeriveSeedsAdversarial(t *testing.T) {
	// base = -γ mod 2^64: the first increment lands on x = 0, whose
	// SplitMix64 finalization is 0 — the old code handed that straight
	// to the replication axis.
	var base uint64
	base -= 0x9e3779b97f4a7c15
	seeds := DeriveSeeds(base, 4)
	if len(seeds) != 4 {
		t.Fatalf("DeriveSeeds returned %d seeds, want 4", len(seeds))
	}
	seen := map[uint64]bool{}
	for i, s := range seeds {
		if s == 0 {
			t.Fatalf("seed %d is zero — it would fall back to Cluster.Seed and duplicate the base replicate", i)
		}
		if seen[s] {
			t.Fatalf("duplicate derived seed %#x", s)
		}
		seen[s] = true
	}
	if !reflect.DeepEqual(seeds, DeriveSeeds(base, 4)) {
		t.Fatal("DeriveSeeds must stay deterministic while skipping zero")
	}

	first := DeriveSeeds(42, 3)
	ext := ExtendSeeds(first, 42, 3)
	if len(ext) != 6 {
		t.Fatalf("ExtendSeeds returned %d seeds, want 6", len(ext))
	}
	if !reflect.DeepEqual(ext[:3], first) {
		t.Fatal("ExtendSeeds must preserve the existing seeds in order")
	}
	seen = map[uint64]bool{}
	for _, s := range ext {
		if s == 0 || seen[s] {
			t.Fatalf("ExtendSeeds over the same base must skip the seeds already spent, got %v", ext)
		}
		seen[s] = true
	}
}

func TestLoadGridPointsAndNeighbors(t *testing.T) {
	g := LoadGrid{Axes: [][]float64{{0.3, 0.55, 0.8}, {0.05, 0.2}}}
	if g.Size() != 6 {
		t.Fatalf("Size = %d, want 6", g.Size())
	}
	want := [][]float64{
		{0.3, 0.05}, {0.3, 0.2},
		{0.55, 0.05}, {0.55, 0.2},
		{0.8, 0.05}, {0.8, 0.2},
	}
	if got := g.Points(); !reflect.DeepEqual(got, want) {
		t.Fatalf("Points = %v, want row-major with the last axis fastest: %v", got, want)
	}
	sorted := func(xs []int) []int {
		out := append([]int(nil), xs...)
		for i := range out {
			for j := i + 1; j < len(out); j++ {
				if out[j] < out[i] {
					out[i], out[j] = out[j], out[i]
				}
			}
		}
		return out
	}
	if got := sorted(g.Neighbors(0)); !reflect.DeepEqual(got, []int{1, 2}) {
		t.Fatalf("Neighbors(0) = %v, want {1, 2}", got)
	}
	if got := sorted(g.Neighbors(3)); !reflect.DeepEqual(got, []int{1, 2, 5}) {
		t.Fatalf("Neighbors(3) = %v, want {1, 2, 5} (±1 along exactly one axis)", got)
	}
	if (LoadGrid{}).Points() != nil || (LoadGrid{}).Size() != 0 {
		t.Fatal("empty grid must enumerate nothing")
	}

	mustPanic(t, "Loads and LoadGrid are mutually exclusive", func() {
		Sweep{
			Loads:    []float64{0.5},
			LoadGrid: g,
			Workload: PoissonWorkload{},
		}.Scenarios()
	})
}

// TestGridSweepResolvesVectorLoads runs a tiny grid sweep end to end
// and checks each cell actually pinned its services to the grid
// point's per-service loads.
func TestGridSweepResolvesVectorLoads(t *testing.T) {
	s := Sweep{
		Cluster:  ClusterConfig{Seed: 9, Servers: 4},
		Policies: []PolicySpec{RR()},
		LoadGrid: LoadGrid{
			AxisNames: []string{"web", "batch"},
			Axes:      [][]float64{{0.3, 0.6}, {0.1}},
		},
		Seeds: []uint64{7},
		Workload: MultiServiceWorkload{
			Services: []ServiceSpec{
				{Name: "web", Pool: "shared", Workload: PoissonService{Lambda0: 80, Queries: 200}},
				{Name: "batch", Pool: "shared", Workload: PoissonService{Lambda0: 80, Queries: 200}},
			},
			Pools: []testbed.PoolSpec{{Name: "shared"}},
		},
	}
	res, err := Runner{Workers: 2}.RunSweep(context.Background(), s)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.LoadVecs) != 2 || len(res.Loads) != 2 {
		t.Fatalf("grid sweep recorded %d load vectors / %d labels, want 2", len(res.LoadVecs), len(res.Loads))
	}
	for li, vec := range res.LoadVecs {
		c := res.CellAt(0, 0, li, 0)
		if !reflect.DeepEqual(c.LoadVec, vec) {
			t.Fatalf("cell %d carries load vector %v, want %v", li, c.LoadVec, vec)
		}
		if c.Load != vec[len(vec)-1] {
			t.Fatalf("cell %d scalar label = %v, want the last-axis value %v", li, c.Load, vec[len(vec)-1])
		}
		if len(c.Outcome.PerVIP) != 2 {
			t.Fatalf("cell %d has %d VIP outcomes, want 2", li, len(c.Outcome.PerVIP))
		}
		for d, vo := range c.Outcome.PerVIP {
			if vo.Load != vec[d] {
				t.Fatalf("cell %d service %q resolved load %v, want the grid point's %v", li, vo.Name, vo.Load, vec[d])
			}
			if vo.Offered == 0 {
				t.Fatalf("cell %d service %q offered nothing", li, vo.Name)
			}
		}
	}
}

// TestRhoGridAdaptiveBudget is the CI budget gate in miniature: on a
// reference grid with a realistic CI target, adaptive replication must
// spend at most 60% of the fixed-replication budget (cells × MaxSeeds),
// and the result must still cover every (point, policy, service) row
// with a recorded stop reason.
func TestRhoGridAdaptiveBudget(t *testing.T) {
	cfg := RhoGridConfig{
		Base:      Base{Cluster: ClusterConfig{Seed: 5, Servers: 4}, Queries: 1500, Workers: 4},
		Lambda0:   80,
		WebRhos:   []float64{0.3, 0.6},
		BatchRhos: []float64{0.1, 0.3},
		BatchPeak: 2,
		Policies:  []PolicySpec{Random2(), WeightedLeastLoadPolicy()},
		Adaptive:  Adaptive{CITarget: 0.5, MinSeeds: 3, MaxSeeds: 10},
	}
	res := RunRhoGrid(cfg)

	fixed := res.FixedBudget()
	if fixed != 2*2*2*10 {
		t.Fatalf("fixed budget = %d, want 80 (2×2 grid × 2 policies × 10 max seeds)", fixed)
	}
	if spent := res.TotalReplicates(); spent*10 > fixed*6 {
		t.Fatalf("adaptive run spent %d replicates, more than 60%% of the fixed budget %d", spent, fixed)
	}

	rows := map[string]bool{}
	for _, row := range res.Rows {
		if row.StopReason != StopConverged && row.StopReason != StopMaxSeeds {
			t.Fatalf("row (%v, %v, %s, %s) has stop reason %q", row.LoadVec[0], row.LoadVec[1], row.Policy, row.Service, row.StopReason)
		}
		if row.N < 3 {
			t.Fatalf("row (%v, %v, %s, %s) aggregated %d replicates, below the MinSeeds floor", row.LoadVec[0], row.LoadVec[1], row.Policy, row.Service, row.N)
		}
		key := row.Policy + "/" + row.Service
		rows[key] = true
	}
	for _, p := range []string{"random2", "wleastload"} {
		for _, svc := range []string{"all", "web", "batch"} {
			if !rows[p+"/"+svc] {
				t.Fatalf("missing rows for policy %s service %s", p, svc)
			}
		}
	}
	if want := 2 * 2 * 2 * 3; len(res.Rows) != want {
		t.Fatalf("got %d rows, want %d (points × policies × {all, web, batch})", len(res.Rows), want)
	}

	maps := res.Heatmaps("p99")
	if len(maps) != 2 {
		t.Fatalf("got %d heatmap facets, want one per policy", len(maps))
	}
	for _, h := range maps {
		if len(h.Z) != 2 || len(h.Z[0]) != 2 {
			t.Fatalf("facet %q has shape %dx%d, want 2x2", h.Title, len(h.Z), len(h.Z[0]))
		}
		for _, row := range h.Z {
			for _, v := range row {
				if math.IsNaN(v) {
					t.Fatalf("facet %q has a missing cell; every grid point ran", h.Title)
				}
			}
		}
	}

	// The artifacts, as srlb-bench writes them: the TSV, and the p99 and
	// replicate-spend heatmaps of rhogrid_heatmaps.txt.
	var tsv strings.Builder
	if err := res.WriteTSV(&tsv); err != nil {
		t.Fatal(err)
	}
	if lines := strings.Count(tsv.String(), "\n"); lines != 2+len(res.Rows) {
		t.Fatalf("TSV has %d lines, want %d", lines, 2+len(res.Rows))
	}
	checkGolden(t, "rhogrid.tsv", tsv.String())
	var heat strings.Builder
	if err := plot.RenderHeatmaps(&heat, maps...); err != nil {
		t.Fatal(err)
	}
	heat.WriteString("\n")
	if err := plot.RenderHeatmaps(&heat, res.Heatmaps("n")...); err != nil {
		t.Fatal(err)
	}
	checkGolden(t, "rhogrid_heatmaps.txt", heat.String())
}
