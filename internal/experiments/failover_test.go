package experiments

import (
	"context"
	"reflect"
	"slices"
	"strings"
	"testing"
	"time"

	"srlb/internal/agent"
	"srlb/internal/testbed"
)

// failoverVariants is a small two-replica anycast sweep with a mid-run
// LB-failure event on its topology axis — the acceptance scenario.
func failoverVariants() Sweep {
	kill := []testbed.Event{testbed.FailReplica(0.25, 0)}
	return Sweep{
		Cluster:  ClusterConfig{Seed: 31, Servers: 4},
		Policies: []PolicySpec{RR(), SRc(4)},
		Variants: []ClusterVariant{
			{Name: "steady"},
			{Name: "lb-fail", Apply: func(c ClusterConfig) ClusterConfig {
				c.Replicas = 2
				c.ConsistentHash = false
				c.MissFallback = true
				c.Events = kill
				return c
			}},
		},
		Loads:    []float64{0.6},
		Seeds:    DeriveSeeds(31, 2),
		Workload: OneService(PoissonService{Lambda0: 80, Queries: 1500}),
	}
}

// A two-replica anycast topology with a mid-run LB-failure Event must
// run through Sweep/Runner with byte-identical results at 1 vs N
// workers — the topology axis keeps the Runner's determinism contract.
func TestVariantSweepParallelEqualsSerial(t *testing.T) {
	sweep := failoverVariants()
	serial, err := Runner{Workers: 1}.RunSweep(context.Background(), sweep)
	if err != nil {
		t.Fatal(err)
	}
	parallel, err := Runner{Workers: 8}.RunSweep(context.Background(), sweep)
	if err != nil {
		t.Fatal(err)
	}
	if want := len(sweep.Policies) * len(sweep.Variants) * len(sweep.Loads) * len(sweep.Seeds); len(serial.Cells) != want {
		t.Fatalf("cells = %d, want %d", len(serial.Cells), want)
	}
	if !reflect.DeepEqual(stripWall(serial.Cells), stripWall(parallel.Cells)) {
		t.Fatal("variant sweep differs between 1 and 8 workers")
	}
	// Axis indexing: CellAt must agree with the order the cells ran in,
	// and the variant label must ride into every cell.
	i := 0
	for pi := range sweep.Policies {
		for vi, va := range sweep.Variants {
			for si := range serial.Seeds {
				c := serial.CellAt(pi, vi, 0, si)
				if c.Index != i || c.Variant != va.Name {
					t.Fatalf("CellAt(%d,%d,0,%d) = index %d variant %q, want index %d variant %q",
						pi, vi, si, c.Index, c.Variant, i, va.Name)
				}
				i++
			}
		}
	}
	// Aggregation folds seeds per (policy, variant): the variant axis
	// must survive into SweepStats.
	agg := serial.Aggregate()
	if got := agg.CellAt(1, 1, 0); got.Variant != "lb-fail" || got.N() != 2 {
		t.Fatalf("aggregate variant cell = %q n=%d, want lb-fail n=2", got.Variant, got.N())
	}
}

// The failover experiment's claim: with consistent-hash selection plus
// the miss-fallback, killing a replica loses nothing; with random
// selection, flows whose state lived on the dead replica stall.
func TestFailoverMaglevVsRandom(t *testing.T) {
	res := RunFailover(Base{Cluster: ClusterConfig{Seed: 33, Servers: 4}, Lambda0: 80, Queries: 3000, Seeds: DeriveSeeds(33, 2)})
	mode := func(name string) FailoverMode {
		i := slices.IndexFunc(res.Modes, func(m FailoverMode) bool { return m.Variant == name })
		if i < 0 {
			t.Fatalf("failover: no mode %q", name)
		}
		return res.Modes[i]
	}
	maglev, random := mode("maglev+fallback"), mode("random")
	if n := maglev.N; n != 2 {
		t.Fatalf("maglev replicates = %d, want 2", n)
	}
	if got := maglev.Unfinished; got != 0 {
		t.Fatalf("maglev+fallback lost %v queries across the failover, want 0", got)
	}
	if got := random.Unfinished; got == 0 {
		t.Fatal("random selection lost nothing — failover not exercised")
	}
	if maglev.OKFrac <= random.OKFrac {
		t.Fatalf("maglev ok=%.4f not above random ok=%.4f",
			maglev.OKFrac, random.OKFrac)
	}
	// The maglev timeline must be flat at zero failures; the random
	// timeline must show the structural cross-replica losses while both
	// replicas are alive — and (the instructive part) a *lower* failure
	// rate once only one replica remains.
	killBin := int(res.KillAt / random.Bins[1].Start) // bin i starts i widths in
	var preKill, postKill float64
	for i, b := range maglev.Bins {
		if b.FailedFrac != 0 {
			t.Fatalf("maglev bin %d has failures (%.4f)", i, b.FailedFrac)
		}
	}
	for i, b := range random.Bins {
		if i < killBin-1 {
			preKill += b.FailedFrac
		} else if i > killBin+1 {
			postKill += b.FailedFrac
		}
	}
	if preKill == 0 {
		t.Fatal("random mode shows no cross-replica steering losses pre-kill")
	}
	if postKill >= preKill {
		t.Fatalf("random mode did not improve once single-replica: pre=%.2f post=%.2f", preKill, postKill)
	}
	// And the TSV renders one block per mode.
	tsv := render(t, res.TSV())
	if got := strings.Count(tsv, "# mode:"); got != 2 {
		t.Fatalf("TSV has %d mode blocks, want 2", got)
	}
}

// Regression for the failover rate-relative migration: the kill/recover
// schedule used to be computed absolutely from the (single) rho's
// arrival span. The migrated schedule declares the instants as
// fractions that each cell takes of its own span — so at a fixed rho
// the hand-resolved instants, written back as fractions of that span,
// must produce byte-identical cells.
func TestFailoverRelativeMatchesAbsolute(t *testing.T) {
	const (
		lambda0               = 80.0
		queries               = 1500
		rho                   = 0.7
		killFrac, recoverFrac = 0.5, 0.8
	)
	// The absolute schedule exactly as the pre-migration code computed it.
	rate := rho * lambda0
	span := time.Duration(float64(queries) / rate * float64(time.Second))
	of := func(at time.Duration) float64 { return float64(at) / float64(span) }
	absolute := []testbed.Event{
		testbed.FailReplica(of(time.Duration(killFrac*float64(span))), 0),
		testbed.RecoverReplica(of(time.Duration(recoverFrac*float64(span))), 0),
	}
	relative := []testbed.Event{
		testbed.FailReplica(killFrac, 0),
		testbed.RecoverReplica(recoverFrac, 0),
	}
	run := func(events []testbed.Event) []CellResult {
		res, err := Runner{Workers: 2}.RunSweep(context.Background(), Sweep{
			Cluster: ClusterConfig{Seed: 83, Servers: 4},
			Policies: []PolicySpec{{
				Name:       "first-accept",
				Candidates: 2,
				NewAgent:   func() agent.Policy { return agent.Always{} },
			}},
			Variants: []ClusterVariant{{Name: "lb-fail", Apply: func(c ClusterConfig) ClusterConfig {
				c.Replicas = 2
				c.ConsistentHash = true
				c.MissFallback = true
				c.Events = events
				return c
			}}},
			Loads:    []float64{rho},
			Seeds:    DeriveSeeds(83, 2),
			Workload: OneService(PoissonService{Lambda0: lambda0, Queries: queries}),
		})
		if err != nil {
			t.Fatal(err)
		}
		return stripWall(res.Cells)
	}
	if !reflect.DeepEqual(run(absolute), run(relative)) {
		t.Fatal("rate-relative failover schedule diverges from the absolute-time schedule at fixed rho")
	}
}

func TestChurnSweep(t *testing.T) {
	res := RunChurn(Base{Cluster: ClusterConfig{Seed: 35, Servers: 4}, Lambda0: 80, Queries: 600, Seeds: DeriveSeeds(35, 2)})
	if len(res.Rows) != 18 { // 3 rhos × 3 policies × {steady, churn}
		t.Fatalf("rows = %d, want 18", len(res.Rows))
	}
	for _, row := range res.Rows {
		if row.N != 2 {
			t.Fatalf("row %s/%s has n=%d, want 2", row.Policy, row.Variant, row.N)
		}
		if row.Rho <= 0.75 && row.OKFrac < 0.95 {
			t.Fatalf("row %s/%s ok=%.3f — churn at moderate load should not shed queries", row.Policy, row.Variant, row.OKFrac)
		}
	}
	if _, err := res.ChurnPenalty("SR 4", 0.5); err != nil {
		t.Fatal(err)
	}
	tsv := render(t, res.TSV())
	if lines := strings.Count(tsv, "\n"); lines != 2+18 { // header comment + column row + 18 rows
		t.Fatalf("TSV line count = %d", lines)
	}
}

// The bursty sweep rides the fig2 machinery: identical row format,
// column for column, so the two TSVs compare directly.
func TestBurstySweepMatchesPoissonRowFormat(t *testing.T) {
	base := Fig2Config{
		Cluster: ClusterConfig{Seed: 37, Servers: 4},
		Lambda0: 80,
		Rhos:    []float64{0.4, 0.7},
		Queries: 800,
		Seeds:   DeriveSeeds(37, 2),
	}
	poisson := RunFig2(base)
	bursty := base
	bursty.Workload = OneService(BurstyService{Lambda0: 80, Queries: 800})
	burstyRes := RunFig2(bursty)

	pTSV, bTSV := render(t, poisson.TSV()), render(t, burstyRes.TSV())
	pLines := strings.Split(strings.TrimRight(pTSV, "\n"), "\n")
	bLines := strings.Split(strings.TrimRight(bTSV, "\n"), "\n")
	if len(pLines) != len(bLines) {
		t.Fatalf("line counts differ: %d vs %d", len(pLines), len(bLines))
	}
	// Same column structure everywhere; identical header row (the
	// policy columns), different title comment.
	if pLines[1] != bLines[1] {
		t.Fatalf("header rows differ:\n%s\n%s", pLines[1], bLines[1])
	}
	for i := 2; i < len(pLines); i++ {
		if pc, bc := strings.Count(pLines[i], "\t"), strings.Count(bLines[i], "\t"); pc != bc {
			t.Fatalf("row %d column counts differ: %d vs %d", i, pc, bc)
		}
	}
	if !strings.Contains(bTSV, "bursty") {
		t.Fatal("bursty TSV title does not name the workload")
	}
}
