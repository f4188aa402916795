package experiments

import (
	"context"
	"fmt"
	"reflect"
	"strings"
	"testing"
	"time"

	"srlb/internal/testbed"
)

// A malformed fraction must surface its diagnostic on the workload path
// too — workloads resolve events before Build, so resolution is where
// the check fires.
func TestWorkloadRejectsBadFraction(t *testing.T) {
	defer func() {
		r := recover()
		if r == nil {
			t.Fatal("bad fraction not rejected on the workload path")
		}
		if !strings.Contains(fmt.Sprint(r), "outside [0, 1]") {
			t.Fatalf("wrong diagnostic: %v", r)
		}
	}()
	_, _ = OneService(PoissonService{Lambda0: 80, Queries: 100}).Run(context.Background(),
		ClusterConfig{Seed: 1, Servers: 4,
			Events: []testbed.Event{testbed.DrainServer(0, 0, 0).AtFraction(-0.1)}},
		RR(), 0.5)
}

// Regression for the rate-relative migration: RunChurn used to run one
// sweep per rho, hand-resolving each drain/add time against that rho's
// arrival span. The migrated schedule declares the same instants as
// fractions (AtFraction) and lets the workload resolve them per load
// point — so for a fixed rho the two forms must produce identical cells.
func TestChurnRelativeMatchesAbsolute(t *testing.T) {
	const (
		lambda0             = 80.0
		queries             = 1500
		rho                 = 0.9
		churnBy             = 2
		drainFrac, growFrac = 0.3, 0.65
	)
	// The absolute schedule exactly as the pre-migration code computed
	// it: phase offset + per-server stagger of span/100.
	rate := rho * lambda0
	span := time.Duration(float64(queries) / rate * float64(time.Second))
	stagger := span / 100
	absolute := make([]testbed.Event, 0, 2*churnBy)
	for g := 0; g < churnBy; g++ {
		at := time.Duration(drainFrac*float64(span)) + time.Duration(g)*stagger
		absolute = append(absolute, testbed.DrainServer(at, 0, g))
	}
	for g := 0; g < churnBy; g++ {
		at := time.Duration(growFrac*float64(span)) + time.Duration(g)*stagger
		absolute = append(absolute, testbed.AddServer(at, 0))
	}
	relative := churnEvents(churnBy, drainFrac, growFrac)

	run := func(events []testbed.Event) []CellResult {
		res, err := Runner{Workers: 2}.RunSweep(context.Background(), Sweep{
			Cluster:  ClusterConfig{Seed: 43, Servers: 4},
			Policies: []PolicySpec{RR(), SRc(4)},
			Variants: []ClusterVariant{{Name: "churn", Apply: func(c ClusterConfig) ClusterConfig {
				c.Events = events
				return c
			}}},
			Loads:    []float64{rho},
			Seeds:    DeriveSeeds(43, 2),
			Workload: OneService(PoissonService{Lambda0: lambda0, Queries: queries}),
		})
		if err != nil {
			t.Fatal(err)
		}
		return stripWall(res.Cells)
	}
	if !reflect.DeepEqual(run(absolute), run(relative)) {
		t.Fatal("rate-relative churn schedule diverges from the absolute-time schedule at fixed rho")
	}
}

// A long stagger must clamp to span end instead of producing fractions
// > 1 — the absolute-time schedule simply fired those events after the
// last arrival, so the migrated form must not panic where the old one
// ran. RunChurn staggers a third of the pool from a re-add at 0.65, so
// a pool of 111 servers or more crosses 1; a late re-add crosses it on
// a small pool.
func TestChurnLateScheduleClamps(t *testing.T) {
	events := churnEvents(6, 0.3, 0.97)
	for _, ev := range events {
		if ev.Frac > 1 {
			t.Fatalf("event fraction %v escaped the clamp", ev.Frac)
		}
	}
	cell := Scenario{
		Cluster: ClusterConfig{Seed: 51, Servers: 6,
			Events: churnEvents(2, churnDrainFrac, 0.99)}, // 0.99 + stagger crosses 1 without the clamp
		Policy:   RR(),
		Workload: OneService(PoissonService{Lambda0: 120, Queries: 800}),
		Load:     0.8,
	}.Run(context.Background())
	if cell.Err != nil || cell.Outcome.RT.Count() == 0 {
		t.Fatalf("late-schedule churn cell: err %v, %d completions", cell.Err, cell.Outcome.RT.Count())
	}
}

// One rate-relative variant serves the whole load sweep: the drain must
// land mid-run at every rho (the pre-migration failure mode was a fixed
// absolute schedule churning after the arrivals ended at low rates).
func TestChurnSweepAcrossRhos(t *testing.T) {
	res := RunChurn(Base{Cluster: ClusterConfig{Seed: 47, Servers: 4}, Lambda0: 80, Queries: 800})
	if len(res.Rows) != 3*3*2 { // rhos × policies × modes
		t.Fatalf("%d rows, want 18", len(res.Rows))
	}
	// Churn must actually bite at every rho: the churn variant's mean RT
	// differs from steady's (the drained third of the pool squeezes
	// capacity mid-run at 0.5 just as at 0.95).
	for _, rho := range []float64{0.5, 0.75, 0.95} {
		pen, err := res.ChurnPenalty("RR", rho)
		if err != nil {
			t.Fatalf("rho=%.1f: %v", rho, err)
		}
		if pen == 1.0 {
			t.Fatalf("rho=%.1f: churn penalty exactly 1 — events inert at this load", rho)
		}
	}
}
