package srlb_test

import (
	"context"
	"testing"

	"srlb/internal/experiments"
	"srlb/internal/stats"
)

// The TestFacade* tests check the entry points that cmd/srlb-bench,
// cmd/srlb-sim and the examples call, on the packages that define them.

func TestFacadePolicyConstructors(t *testing.T) {
	if experiments.RR().Candidates != 1 {
		t.Fatal("RR candidates")
	}
	if experiments.SRc(8).Name != "SR 8" {
		t.Fatal("SRc name")
	}
	if len(experiments.PaperPolicies()) != 5 {
		t.Fatal("paper policies")
	}
}

func TestFacadeSweepRunner(t *testing.T) {
	cluster := experiments.ClusterConfig{Seed: 5, Servers: 4}
	res, err := experiments.Runner{Workers: 4}.RunSweep(context.Background(), experiments.Sweep{
		Cluster:  cluster,
		Policies: []experiments.PolicySpec{experiments.RR(), experiments.SRc(4)},
		Loads:    []float64{0.4, 0.85},
		Workload: experiments.OneService(experiments.PoissonService{Lambda0: 80, Queries: 2000}),
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Cells) != 4 {
		t.Fatalf("cells = %d, want 4", len(res.Cells))
	}
	// The paper's claim: SR4 beats RR at high load.
	rr := res.Cell(0, 1, 0).Outcome.RT.Mean()
	sr := res.Cell(1, 1, 0).Outcome.RT.Mean()
	if sr >= rr {
		t.Fatalf("SR4 (%v) not better than RR (%v) at rho=0.85", sr, rr)
	}
}

func TestFacadeScenarioWorkloads(t *testing.T) {
	cluster := experiments.ClusterConfig{Seed: 6, Servers: 4}
	var w experiments.Workload = experiments.OneService(experiments.BurstyService{Lambda0: 80, Queries: 1000})
	cell := experiments.Scenario{Cluster: cluster, Policy: experiments.SRdyn(), Workload: w, Load: 0.5}.
		Run(context.Background())
	out := cell.Outcome
	if out.RT.Count()+out.Refused+out.Unfinished != 1000 {
		t.Fatal("bursty accounting broken")
	}
	if len(out.Cluster.ServerCompleted) != 4 {
		t.Fatal("missing per-server completions")
	}
	if len(experiments.DeriveSeeds(1, 3)) != 3 {
		t.Fatal("DeriveSeeds length")
	}
}

func TestFacadeCalibrate(t *testing.T) {
	cal := experiments.Calibrate(experiments.CalibrationConfig{
		Cluster: experiments.ClusterConfig{Seed: 4, Servers: 4},
		Queries: 4000,
	})
	if cal.Lambda0 <= 0 {
		t.Fatal("no lambda0")
	}
	cached := experiments.CalibrateCached(experiments.CalibrationConfig{
		Cluster: experiments.ClusterConfig{Seed: 4, Servers: 4},
		Queries: 4000,
	})
	if cached.Lambda0 != cal.Lambda0 {
		t.Fatalf("cached lambda0 %v != direct %v", cached.Lambda0, cal.Lambda0)
	}
}

func TestFacadeReplication(t *testing.T) {
	agg, err := experiments.Runner{}.RunSweepStats(context.Background(), experiments.Sweep{
		Cluster:  experiments.ClusterConfig{Seed: 9, Servers: 4},
		Policies: []experiments.PolicySpec{experiments.RR(), experiments.SRc(4)},
		Loads:    []float64{0.85},
		Seeds:    experiments.DeriveSeeds(9, 3),
		Workload: experiments.OneService(experiments.PoissonService{Lambda0: 80, Queries: 1500}),
	})
	if err != nil {
		t.Fatal(err)
	}
	cell := agg.Cell(1, 0)
	if cell.N() != 3 || cell.MeanCI95() <= 0 {
		t.Fatalf("replication not aggregated: n=%d ci=%v", cell.N(), cell.MeanCI95())
	}
	// The stats layer is usable directly.
	var d stats.Dist = stats.Describe([]float64{1, 2, 3})
	if d.N != 3 || d.Mean != 2 {
		t.Fatalf("Describe: %+v", d)
	}
}
