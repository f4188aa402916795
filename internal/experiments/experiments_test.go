package experiments

import (
	"bytes"
	"runtime"
	"strings"
	"testing"
	"time"

	"srlb/internal/testbed"
	"srlb/internal/wiki"
)

// Small cluster + batches keep the suite fast; shapes are what we assert.
func smallCluster(seed uint64) ClusterConfig {
	return ClusterConfig{Seed: seed, Servers: 4}
}

func TestPolicySpecs(t *testing.T) {
	if RR().Name != "RR" || RR().Candidates != 1 {
		t.Fatal("RR spec wrong")
	}
	if SRc(4).Name != "SR 4" || SRc(4).Candidates != 2 {
		t.Fatal("SRc spec wrong")
	}
	if SRdyn().Name != "SR dyn" {
		t.Fatal("SRdyn spec wrong")
	}
	if SRcK(4, 3).Candidates != 3 {
		t.Fatal("SRcK spec wrong")
	}
	if len(PaperPolicies()) != 5 {
		t.Fatal("paper policies must be the 5 lines of figure 2")
	}
	// Fresh agents per server: two calls must not share state.
	spec := SRdyn()
	if spec.NewAgent() == spec.NewAgent() {
		t.Fatal("NewAgent must build independent instances")
	}
}

func TestTheoreticalCapacity(t *testing.T) {
	got := ClusterConfig{}.TheoreticalCapacity()
	if got != 240 { // 12 servers × 2 cores / 0.1s
		t.Fatalf("capacity = %v, want 240", got)
	}
}

func TestRunPoissonBasics(t *testing.T) {
	run := RunPoisson(smallCluster(1), SRc(4), 40, 2000, PoissonHooks{})
	if run.RT.Count()+run.Refused+run.Unfinished != 2000 {
		t.Fatalf("accounting: ok=%d refused=%d unfinished=%d",
			run.RT.Count(), run.Refused, run.Unfinished)
	}
	if run.OKFraction() < 0.99 {
		t.Fatalf("ok fraction = %v at moderate load", run.OKFraction())
	}
	if run.RT.Mean() <= 0 {
		t.Fatal("zero mean response time")
	}
}

func TestRunPoissonHooksObserveEveryQuery(t *testing.T) {
	seen := 0
	RunPoisson(smallCluster(2), RR(), 50, 1000, PoissonHooks{
		OnResult: func(testbed.Result) { seen++ },
	})
	if seen != 1000 {
		t.Fatalf("hooks saw %d results, want 1000", seen)
	}
}

func TestCalibrateFindsDropOnset(t *testing.T) {
	cal := Calibrate(CalibrationConfig{Cluster: smallCluster(3), Queries: 4000})
	// 4 servers × 2 cores / 0.1s = 80 q/s theoretical.
	if cal.Theoretical != 80 {
		t.Fatalf("theoretical = %v", cal.Theoretical)
	}
	if cal.Lambda0 < 60 || cal.Lambda0 > 120 {
		t.Fatalf("lambda0 = %v, implausible for 80 q/s theoretical", cal.Lambda0)
	}
	if len(cal.Probes) < 3 {
		t.Fatalf("only %d probes", len(cal.Probes))
	}
	var buf bytes.Buffer
	if err := cal.WriteTSV(&buf); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), "rate_qps") {
		t.Fatal("TSV header missing")
	}
}

func TestFig2ShapeAndTSV(t *testing.T) {
	res := RunFig2(Fig2Config{
		Cluster:  smallCluster(4),
		Rhos:     []float64{0.3, 0.88},
		Policies: []PolicySpec{RR(), SRc(4)},
		Queries:  6000,
	})
	if len(res.Points) != 2 || len(res.Points[0]) != 2 {
		t.Fatal("result shape wrong")
	}
	// The paper's core claim: SR4 ≤ RR at high load, and high load is
	// slower than light load for RR.
	rrLight, rrHigh := res.Points[0][0].Mean, res.Points[0][1].Mean
	srHigh := res.Points[1][1].Mean
	if rrHigh <= rrLight {
		t.Fatalf("RR not degrading with load: %v vs %v", rrLight, rrHigh)
	}
	if srHigh >= rrHigh {
		t.Fatalf("SR4 (%v) not better than RR (%v) at rho=0.88", srHigh, rrHigh)
	}
	imp, err := res.Improvement("SR 4", 0.88)
	if err != nil {
		t.Fatal(err)
	}
	if imp < 1.2 {
		t.Fatalf("improvement %.2fx too small", imp)
	}
	if _, err := res.Improvement("nope", 0.5); err == nil {
		t.Fatal("unknown policy should error")
	}
	var buf bytes.Buffer
	if err := res.WriteTSV(&buf); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	if !strings.Contains(out, "rho\tRR\tSR 4") {
		t.Fatalf("TSV header wrong:\n%s", out)
	}
	if len(strings.Split(strings.TrimSpace(out), "\n")) != 4 { // comment+header+2 rows
		t.Fatalf("TSV row count wrong:\n%s", out)
	}
}

func TestCDFResult(t *testing.T) {
	res := RunCDF(CDFConfig{
		Base:     Base{Cluster: smallCluster(5), Queries: 4000},
		Rho:      0.7,
		Policies: []PolicySpec{RR(), SRc(4)},
		Points:   50,
	})
	if len(res.RT) != 2 {
		t.Fatal("wrong number of recorders")
	}
	for _, r := range res.RT {
		if r.Count() < 3800 {
			t.Fatalf("too few completions: %d", r.Count())
		}
	}
	var buf bytes.Buffer
	if err := res.WriteTSV(&buf); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), "cdf_RR") || !strings.Contains(buf.String(), "cdf_SR 4") {
		t.Fatal("CDF TSV missing policy blocks")
	}
}

func TestFig3Fig5FixTheLoad(t *testing.T) {
	cfg := CDFConfig{
		Base:     Base{Cluster: smallCluster(6), Queries: 500},
		Lambda0:  80,
		Policies: []PolicySpec{RR()},
	}
	if got := RunFig3(cfg).Rho; got != 0.88 {
		t.Fatalf("fig3 rho = %v", got)
	}
	if got := RunFig5(cfg).Rho; got != 0.61 {
		t.Fatalf("fig5 rho = %v", got)
	}
}

func TestFig4FairnessOrdering(t *testing.T) {
	res := RunFig4(Fig4Config{
		Base: Base{Cluster: smallCluster(7), Queries: 8000},
	})
	if len(res.Series) != 2 {
		t.Fatal("expected RR and SR4 series")
	}
	rr, err := res.MeanFairness("RR")
	if err != nil {
		t.Fatal(err)
	}
	sr, err := res.MeanFairness("SR 4")
	if err != nil {
		t.Fatal(err)
	}
	// Figure 4's claim: SR4's fairness index sits above RR's.
	if sr <= rr {
		t.Fatalf("SR4 fairness %.3f not above RR %.3f", sr, rr)
	}
	if _, err := res.MeanFairness("nope"); err == nil {
		t.Fatal("unknown policy should error")
	}
	var buf bytes.Buffer
	if err := res.WriteTSV(&buf); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), "fairness_RR") {
		t.Fatal("fig4 TSV missing series")
	}
}

func TestWikiReplayShapes(t *testing.T) {
	res := RunWiki(WikiConfig{
		Cluster: ClusterConfig{Seed: 8, Servers: 12},
		Day:     wikiDayFast(8),
	})
	if len(res.Runs) != 2 {
		t.Fatal("expected RR and SR4 runs")
	}
	rr, sr := res.Runs[0], res.Runs[1]
	if rr.WikiAll.Count() == 0 || sr.WikiAll.Count() == 0 {
		t.Fatal("no wiki pages recorded")
	}
	// Both replay the same trace: every query ends as exactly one of
	// ok-wiki, ok-static or refused, so totals must match exactly.
	rrTotal := rr.WikiAll.Count() + rr.StaticAll.Count() + rr.Refused
	srTotal := sr.WikiAll.Count() + sr.StaticAll.Count() + sr.Refused
	if rrTotal != srTotal {
		t.Fatalf("trace sizes diverge: rr=%d sr=%d", rrTotal, srTotal)
	}
	// Under the calibrated defaults only a small fraction may be refused.
	if rr.Refused > rrTotal/20 {
		t.Fatalf("rr refused %d of %d — system overloaded, calibration off", rr.Refused, rrTotal)
	}
	// §VI-C: statics are cheap and unaffected; wiki pages improve with SR4.
	if rr.StaticAll.Median() > 20*time.Millisecond {
		t.Fatalf("static median %v too slow", rr.StaticAll.Median())
	}
	if sr.WikiAll.Quantile(0.75) >= rr.WikiAll.Quantile(0.75) {
		t.Fatalf("SR4 Q3 (%v) not better than RR (%v)",
			sr.WikiAll.Quantile(0.75), rr.WikiAll.Quantile(0.75))
	}
	// Cache model engaged on every replica.
	for i, h := range sr.HitRates {
		if h <= 0 || h >= 1 {
			t.Fatalf("replica %d hit rate %v implausible", i, h)
		}
	}

	for _, emit := range []func(*bytes.Buffer) error{
		func(b *bytes.Buffer) error { return res.WriteFig6TSV(b) },
		func(b *bytes.Buffer) error { return res.WriteFig7TSV(b) },
		func(b *bytes.Buffer) error { return res.WriteFig8TSV(b) },
	} {
		var buf bytes.Buffer
		if err := emit(&buf); err != nil {
			t.Fatal(err)
		}
		if buf.Len() == 0 {
			t.Fatal("empty TSV")
		}
	}
	if len(res.Summaries()) != 2 {
		t.Fatal("summaries wrong")
	}
}

func TestAblationCandidates(t *testing.T) {
	res := RunCandidateAblation(AblationConfig{
		Base: Base{Cluster: smallCluster(9), Queries: 5000},
		Rho:  0.85,
	})
	if len(res.Rows) != 4 {
		t.Fatalf("rows = %d", len(res.Rows))
	}
	// k=2 must already capture most of the gain over k=1 (Mitzenmacher).
	k1, k2 := res.Rows[0].Mean, res.Rows[1].Mean
	if k2 >= k1 {
		t.Fatalf("k=2 (%v) not better than k=1 (%v)", k2, k1)
	}
	var buf bytes.Buffer
	if err := res.WriteTSV(&buf); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), "k=1 (RR)") {
		t.Fatal("ablation TSV missing rows")
	}
}

func TestDeterministicExperiments(t *testing.T) {
	runOnce := func() time.Duration {
		return RunPoisson(smallCluster(10), SRdyn(), 60, 3000, PoissonHooks{}).RT.Mean()
	}
	if runOnce() != runOnce() {
		t.Fatal("experiment not deterministic for fixed seed")
	}
}

// wikiDayFast returns a compressed, low-volume day for tests.
func wikiDayFast(seed uint64) wiki.Config {
	return wiki.Config{
		Seed:        seed,
		Compression: 288, // 24h -> 5 simulated minutes
	}
}

// TestQueryAllocationBudget keeps the query path garbage-free where CI
// can see it: one query of the paper's reference cell — SR4 at ρ = 0.85
// on 12 servers — costs at most 4.5 heap objects, everything around the
// simulation (testbed, sketches, free lists filling) included. What is
// left is the steered packet's header (two objects, core.handleSteered)
// and — in a run this short — one flow-table entry per query, which the
// idle TTL recycles in longer ones; connection set-up itself allocates
// nothing once warm. Allocation counts do not depend on the host, so the
// bound is tight: a candidate list or a connection record per query
// alone would break it.
func TestQueryAllocationBudget(t *testing.T) {
	const queries, budget = 5000, 4.5
	cluster := ClusterConfig{Seed: 1, Servers: 12}
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	run := RunPoisson(cluster, SRc(4), 0.85*cluster.TheoreticalCapacity(), queries, PoissonHooks{})
	runtime.ReadMemStats(&after)
	if run.RT.Count() != queries {
		t.Fatalf("%d of %d queries completed", run.RT.Count(), queries)
	}
	perQuery := float64(after.Mallocs-before.Mallocs) / queries
	t.Logf("%.2f mallocs/query", perQuery)
	if perQuery > budget {
		t.Fatalf("%.2f mallocs/query, budget %.1f", perQuery, budget)
	}
}
