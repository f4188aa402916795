package srlb_test

import (
	"bytes"
	"context"
	"strings"
	"testing"

	"srlb"
)

func TestQuickComparison(t *testing.T) {
	rr, sr := srlb.QuickComparison(1, 4, 0.85, 4000)
	if rr <= 0 || sr <= 0 {
		t.Fatal("zero means")
	}
	if sr >= rr {
		t.Fatalf("SR4 (%v) not better than RR (%v) at high load", sr, rr)
	}
}

func TestFacadeRunPoisson(t *testing.T) {
	cluster := srlb.Cluster{Seed: 2, Servers: 4}
	run := srlb.RunPoisson(cluster, srlb.SRDynamic(), 40, 2000)
	if run.RT.Count()+run.Refused+run.Unfinished != 2000 {
		t.Fatal("query accounting broken")
	}
	if run.Spec.Name != "SR dyn" {
		t.Fatalf("spec = %q", run.Spec.Name)
	}
}

func TestFacadePolicyConstructors(t *testing.T) {
	if srlb.RR().Candidates != 1 {
		t.Fatal("RR candidates")
	}
	if srlb.SRStatic(8).Name != "SR 8" {
		t.Fatal("SRStatic name")
	}
	if srlb.SRStaticK(4, 3).Candidates != 3 {
		t.Fatal("SRStaticK candidates")
	}
	if len(srlb.PaperPolicies()) != 5 {
		t.Fatal("paper policies")
	}
	if srlb.MeanDemand.Milliseconds() != 100 {
		t.Fatal("mean demand must be the paper's 100ms")
	}
}

func TestSynthesizeAndReadTrace(t *testing.T) {
	var buf bytes.Buffer
	day := srlb.WikiDay{Seed: 3, Compression: 2880} // 24h -> 30s
	wikiN, statN, err := srlb.SynthesizeWikiTrace(day, &buf)
	if err != nil {
		t.Fatal(err)
	}
	if wikiN == 0 || statN == 0 {
		t.Fatalf("counts %d/%d", wikiN, statN)
	}
	entries, err := srlb.ReadTrace(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if len(entries) != wikiN+statN {
		t.Fatalf("read %d, want %d", len(entries), wikiN+statN)
	}
	sawWiki := false
	for _, e := range entries {
		if strings.Contains(e.URL, "/wiki/index.php") {
			sawWiki = true
			break
		}
	}
	if !sawWiki {
		t.Fatal("no wiki pages in trace")
	}
}

func TestFacadeSweepRunner(t *testing.T) {
	cluster := srlb.Cluster{Seed: 5, Servers: 4}
	res, err := srlb.Runner{Workers: 4}.RunSweep(context.Background(), srlb.Sweep{
		Cluster:  cluster,
		Policies: []srlb.Policy{srlb.RR(), srlb.SRStatic(4)},
		Loads:    []float64{0.4, 0.85},
		Workload: srlb.OneService(srlb.PoissonService{Lambda0: 80, Queries: 2000}),
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Cells) != 4 {
		t.Fatalf("cells = %d, want 4", len(res.Cells))
	}
	// The paper's claim, through the new API: SR4 beats RR at high load.
	rr := res.Cell(0, 1, 0).Outcome.RT.Mean()
	sr := res.Cell(1, 1, 0).Outcome.RT.Mean()
	if sr >= rr {
		t.Fatalf("SR4 (%v) not better than RR (%v) at rho=0.85", sr, rr)
	}
}

func TestFacadeScenarioWorkloads(t *testing.T) {
	cluster := srlb.Cluster{Seed: 6, Servers: 4}
	var w srlb.Workload = srlb.OneService(srlb.BurstyService{Lambda0: 80, Queries: 1000})
	cell := srlb.Scenario{Cluster: cluster, Policy: srlb.SRDynamic(), Workload: w, Load: 0.5}.
		Run(context.Background())
	out := cell.Outcome
	if out.RT.Count()+out.Refused+out.Unfinished != 1000 {
		t.Fatal("bursty accounting broken")
	}
	var stats srlb.ClusterStats = out.Cluster
	if len(stats.ServerCompleted) != 4 {
		t.Fatal("missing per-server completions")
	}
	if len(srlb.DeriveSeeds(1, 3)) != 3 {
		t.Fatal("DeriveSeeds length")
	}
}

func TestFacadeCalibrate(t *testing.T) {
	cal := srlb.Calibrate(srlb.Calibration{
		Cluster: srlb.Cluster{Seed: 4, Servers: 4},
		Queries: 4000,
	})
	if cal.Lambda0 <= 0 {
		t.Fatal("no lambda0")
	}
	cached := srlb.CalibrateCached(srlb.Calibration{
		Cluster: srlb.Cluster{Seed: 4, Servers: 4},
		Queries: 4000,
	})
	if cached.Lambda0 != cal.Lambda0 {
		t.Fatalf("cached lambda0 %v != direct %v", cached.Lambda0, cal.Lambda0)
	}
}

func TestFacadeReplication(t *testing.T) {
	agg, err := srlb.Runner{}.RunSweepStats(context.Background(), srlb.Sweep{
		Cluster:  srlb.Cluster{Seed: 9, Servers: 4},
		Policies: []srlb.Policy{srlb.RR(), srlb.SRStatic(4)},
		Loads:    []float64{0.85},
		Seeds:    srlb.DeriveSeeds(9, 3),
		Workload: srlb.OneService(srlb.PoissonService{Lambda0: 80, Queries: 1500}),
	})
	if err != nil {
		t.Fatal(err)
	}
	var cell srlb.CellStats = agg.Cell(1, 0)
	if cell.N() != 3 || cell.MeanCI95() <= 0 {
		t.Fatalf("replication not aggregated: n=%d ci=%v", cell.N(), cell.MeanCI95())
	}
	// The stats layer is usable directly through the facade.
	var d srlb.Dist = srlb.Describe([]float64{1, 2, 3})
	if d.N != 3 || d.Mean != 2 {
		t.Fatalf("Describe: %+v", d)
	}
	rep := srlb.NewReplicated([]int{1, 2, 3}, func(v int) float64 { return float64(v) })
	if rep.Dist.Mean != 2 {
		t.Fatalf("NewReplicated: %+v", rep.Dist)
	}
	mean := func(xs []float64) float64 { return srlb.Describe(xs).Mean }
	iv := srlb.BootstrapCI([]float64{1, 2, 3, 4}, mean, 200, 0.95, 1)
	if iv.Lo > 2.5 || iv.Hi < 2.5 {
		t.Fatalf("bootstrap interval [%v, %v] misses the mean", iv.Lo, iv.Hi)
	}
}
