package experiments

import (
	"context"
	"reflect"
	"testing"
	"time"

	"srlb/internal/rng"
)

// stripWall zeroes the only nondeterministic CellResult field so full
// results can be compared with reflect.DeepEqual.
func stripWall(cells []CellResult) []CellResult {
	out := make([]CellResult, len(cells))
	for i, c := range cells {
		c.Wall = 0
		out[i] = c
	}
	return out
}

func testSweep(seed uint64) Sweep {
	return Sweep{
		Cluster:  ClusterConfig{Seed: seed, Servers: 4},
		Policies: []PolicySpec{RR(), SRc(4)},
		Loads:    []float64{0.5, 0.85},
		Seeds:    DeriveSeeds(seed, 2),
		Workload: OneService(PoissonService{Lambda0: 80, Queries: 1200}),
	}
}

func TestRunnerParallelEqualsSerial(t *testing.T) {
	sweep := testSweep(21)
	serial, err := Runner{Workers: 1}.RunSweep(context.Background(), sweep)
	if err != nil {
		t.Fatal(err)
	}
	parallel, err := Runner{Workers: 8}.RunSweep(context.Background(), sweep)
	if err != nil {
		t.Fatal(err)
	}
	if len(serial.Cells) != sweep.Size() {
		t.Fatalf("cells = %d, want %d", len(serial.Cells), sweep.Size())
	}
	if !reflect.DeepEqual(stripWall(serial.Cells), stripWall(parallel.Cells)) {
		t.Fatal("parallel sweep differs from serial sweep for the same scenarios")
	}
	// The paper's claim on the raw cells: SR4 beats RR at rho=0.85.
	if rr, sr := serial.Cell(0, 1, 0).Outcome.RT.Mean(), serial.Cell(1, 1, 0).Outcome.RT.Mean(); sr >= rr {
		t.Fatalf("SR4 (%v) not better than RR (%v) at rho=0.85", sr, rr)
	}
	// And a re-run is identical too (pure function of the sweep value).
	again, _ := Runner{Workers: 3}.RunSweep(context.Background(), sweep)
	if !reflect.DeepEqual(stripWall(parallel.Cells), stripWall(again.Cells)) {
		t.Fatal("sweep not reproducible across runs")
	}
}

func TestRunnerResultsInInputOrder(t *testing.T) {
	sweep := testSweep(22).withDefaults()
	res, err := Runner{Workers: 4}.RunSweep(context.Background(), sweep)
	if err != nil {
		t.Fatal(err)
	}
	i := 0
	for pi, spec := range sweep.Policies {
		for li, load := range sweep.Loads {
			for si, seed := range sweep.Seeds {
				c := res.Cells[i]
				if c.Index != i || c.Policy != spec.Name || c.Load != load || c.Seed != seed {
					t.Fatalf("cell %d out of order: %+v", i, c)
				}
				if got := res.Cell(pi, li, si); got.Index != i {
					t.Fatalf("Cell(%d,%d,%d).Index = %d, want %d", pi, li, si, got.Index, i)
				}
				i++
			}
		}
	}
}

func TestRunnerCancellation(t *testing.T) {
	// Many expensive cells: the sweep would take tens of seconds serially.
	sweep := Sweep{
		Cluster:  ClusterConfig{Seed: 23, Servers: 4},
		Policies: PaperPolicies(),
		Loads:    []float64{0.3, 0.6, 0.88},
		Seeds:    DeriveSeeds(23, 4),
		Workload: OneService(PoissonService{Lambda0: 80, Queries: 20000}),
	}
	ctx, cancel := context.WithCancel(context.Background())
	go func() {
		time.Sleep(100 * time.Millisecond)
		cancel()
	}()
	start := time.Now()
	res, err := Runner{Workers: 2}.RunSweep(ctx, sweep)
	elapsed := time.Since(start)
	if err != context.Canceled {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	if elapsed > 5*time.Second {
		t.Fatalf("cancelled sweep took %v — not prompt", elapsed)
	}
	if len(res.Cells) != sweep.Size() {
		t.Fatalf("partial result must keep the full cell slice, got %d", len(res.Cells))
	}
	skipped := 0
	for _, c := range res.Cells {
		switch {
		case c.Err != nil:
			skipped++
		case c.Outcome.RT == nil:
			t.Fatalf("cell %d has neither outcome nor error", c.Index)
		}
	}
	if skipped == 0 {
		t.Fatal("expected at least one cancelled cell")
	}
}

func TestScenarioSeedOverride(t *testing.T) {
	w := OneService(PoissonService{Lambda0: 80, Queries: 800})
	base := Scenario{Cluster: ClusterConfig{Seed: 5, Servers: 4}, Policy: RR(), Workload: w, Load: 0.5}
	override := base
	override.Seed = 6
	direct := base
	direct.Cluster.Seed = 6
	a := override.Run(context.Background())
	b := direct.Run(context.Background())
	if a.Seed != 6 || b.Seed != 6 {
		t.Fatalf("seeds = %d/%d, want 6", a.Seed, b.Seed)
	}
	if a.Outcome.RT.Mean() != b.Outcome.RT.Mean() {
		t.Fatal("Seed override must be equivalent to setting Cluster.Seed")
	}
	c := base.Run(context.Background())
	if c.Outcome.RT.Mean() == a.Outcome.RT.Mean() {
		t.Fatal("different seeds should perturb the outcome")
	}
}

func TestDeriveSeeds(t *testing.T) {
	seeds := DeriveSeeds(1, 8)
	seen := map[uint64]bool{}
	for _, s := range seeds {
		if seen[s] {
			t.Fatal("duplicate derived seed")
		}
		seen[s] = true
	}
	if !reflect.DeepEqual(seeds, DeriveSeeds(1, 8)) {
		t.Fatal("DeriveSeeds must be deterministic")
	}
	if reflect.DeepEqual(seeds, DeriveSeeds(2, 8)) {
		t.Fatal("different bases must give different seeds")
	}
}

func TestPoissonWorkloadMatchesRunPoisson(t *testing.T) {
	cluster := ClusterConfig{Seed: 7, Servers: 4}
	legacy := RunPoisson(cluster, SRc(4), 40, 1500, PoissonHooks{})
	cell := Scenario{
		Cluster:  cluster,
		Policy:   SRc(4),
		Workload: OneService(PoissonService{Lambda0: 80, Queries: 1500}),
		Load:     0.5, // 0.5 × 80 = the same 40 q/s
	}.Run(context.Background())
	if legacy.RT.Mean() != cell.Outcome.RT.Mean() || legacy.RT.Count() != cell.Outcome.RT.Count() {
		t.Fatalf("the one-service Poisson cell diverges from RunPoisson: %v/%d vs %v/%d",
			legacy.RT.Mean(), legacy.RT.Count(), cell.Outcome.RT.Mean(), cell.Outcome.RT.Count())
	}
	if legacy.Refused != cell.Outcome.Refused || legacy.Unfinished != cell.Outcome.Unfinished {
		t.Fatal("failure accounting diverges")
	}
}

func TestBurstyWorkload(t *testing.T) {
	cluster := ClusterConfig{Seed: 8, Servers: 4}
	const queries = 3000
	cell := Scenario{
		Cluster:  cluster,
		Policy:   SRc(4),
		Workload: OneService(BurstyService{Lambda0: 80, Queries: queries}),
		Load:     0.6,
	}.Run(context.Background())
	out := cell.Outcome
	if got := out.RT.Count() + out.Refused + out.Unfinished; got != queries {
		t.Fatalf("accounting: %d results for %d queries", got, queries)
	}
	if len(out.Cluster.ServerCompleted) != cluster.Servers {
		t.Fatalf("per-server completions for %d servers, want %d", len(out.Cluster.ServerCompleted), cluster.Servers)
	}
	if out.RT.Count() < queries/2 {
		t.Fatalf("only %d/%d completed at moderate mean load", out.RT.Count(), queries)
	}
	// Same scenario twice: byte-identical (the MMPP is seeded).
	again := Scenario{
		Cluster:  cluster,
		Policy:   SRc(4),
		Workload: OneService(BurstyService{Lambda0: 80, Queries: queries}),
		Load:     0.6,
	}.Run(context.Background())
	if out.RT.Mean() != again.Outcome.RT.Mean() {
		t.Fatal("bursty workload not deterministic")
	}

	// The point of the workload: at the same mean rate, on/off bursts beat
	// up the tail relative to a plain Poisson stream under RR.
	bursty := Scenario{Cluster: cluster, Policy: RR(),
		Workload: OneService(BurstyService{Lambda0: 80, Queries: queries, PeakFactor: 4, MeanOn: time.Second, MeanOff: 7 * time.Second}),
		Load:     0.6}.Run(context.Background())
	smooth := Scenario{Cluster: cluster, Policy: RR(),
		Workload: OneService(PoissonService{Lambda0: 80, Queries: queries}),
		Load:     0.6}.Run(context.Background())
	if bursty.Outcome.RT.Quantile(0.95) <= smooth.Outcome.RT.Quantile(0.95) {
		t.Fatalf("bursty p95 (%v) should exceed smooth p95 (%v) at equal mean load",
			bursty.Outcome.RT.Quantile(0.95), smooth.Outcome.RT.Quantile(0.95))
	}
}

func TestMMPPMeanRate(t *testing.T) {
	w := BurstyService{Lambda0: 100, Queries: 1}.withDefaults()
	// Drive the arrival process directly: long-run rate ≈ load × Lambda0.
	mean := 0.6 * w.Lambda0
	onFrac := w.MeanOn.Seconds() / (w.MeanOn + w.MeanOff).Seconds()
	rateOn := w.PeakFactor * mean
	rateOff := (mean - onFrac*rateOn) / (1 - onFrac)
	p := &mmpp{
		r: rng.Split(9, 0xb124), rateOn: rateOn, rateOff: rateOff,
		meanOn: w.MeanOn, meanOff: w.MeanOff,
	}
	const n = 60000
	var last time.Duration
	for i := 0; i < n; i++ {
		last = p.Next()
	}
	got := float64(n) / last.Seconds()
	if got < 0.9*mean || got > 1.1*mean {
		t.Fatalf("MMPP long-run rate %.1f q/s, want ≈ %.1f", got, mean)
	}
}
