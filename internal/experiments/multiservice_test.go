package experiments

import (
	"context"
	"fmt"
	"reflect"
	"strings"
	"testing"

	"srlb/internal/agent"
	"srlb/internal/plot"
	"srlb/internal/wiki"
)

// testServices is a small three-service mix — web Poisson + wiki replay +
// batch bursty — sized so a cell simulates in well under a second. The
// wiki day's rates are scaled down to a 4-server pool.
func testServices(webQ, batchQ int) []ServiceSpec {
	return []ServiceSpec{
		{Name: "web", Workload: PoissonService{Lambda0: 80, Queries: webQ}},
		{Name: "wiki", Workload: WikiService{Day: wiki.Config{
			Compression: 5760, FullPeakRate: 60, FullTroughRate: 30,
		}}},
		{Name: "batch", Workload: BurstyService{Lambda0: 40, Queries: batchQ, PeakFactor: 4}, Servers: 2},
	}
}

// Per-VIP conservation: for every service of a multi-service run,
// completions + refusals + unfinished must equal the queries offered to
// that VIP, and the per-VIP columns must sum to the aggregate outcome —
// across selection schemes and replica counts, including the structurally
// lossy random-selection multi-replica configuration.
func TestMultiServiceConservation(t *testing.T) {
	firstAccept := PolicySpec{
		Name:       "first-accept",
		Candidates: 2,
		NewAgent:   func() agent.Policy { return agent.Always{} },
	}
	cases := []struct {
		name                string
		policy              PolicySpec
		replicas            int
		chash, missFallback bool
	}{
		{"RR single LB", RR(), 1, false, false},
		{"SR4 single LB", SRc(4), 1, false, false},
		{"SRdyn single LB", SRdyn(), 1, false, false},
		{"maglev+fallback 2 replicas", firstAccept, 2, true, true},
		// Random selection across 2 replicas loses flows by construction
		// (cross-replica steering has nothing to fall back to); the books
		// must still balance, with the losses in Unfinished.
		{"random 2 replicas (lossy)", SRc(4), 2, false, false},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			cluster := ClusterConfig{
				Seed: 31, Servers: 4,
				Replicas:       tc.replicas,
				ConsistentHash: tc.chash,
				MissFallback:   tc.missFallback,
			}
			w := MultiServiceWorkload{Services: testServices(600, 300)}
			out, err := w.Run(context.Background(), cluster, tc.policy, 0.7)
			if err != nil {
				t.Fatal(err)
			}
			if len(out.PerVIP) != 3 {
				t.Fatalf("PerVIP has %d entries, want 3", len(out.PerVIP))
			}
			var offered, completed, refused, unfinished int
			for _, vo := range out.PerVIP {
				if vo.Offered == 0 {
					t.Fatalf("service %q offered no queries — stream never opened", vo.Name)
				}
				if got := vo.RT.Count() + vo.Refused + vo.Unfinished; got != vo.Offered {
					t.Fatalf("service %q: %d completed + %d refused + %d unfinished != %d offered",
						vo.Name, vo.RT.Count(), vo.Refused, vo.Unfinished, vo.Offered)
				}
				offered += vo.Offered
				completed += vo.RT.Count()
				refused += vo.Refused
				unfinished += vo.Unfinished
			}
			if completed != out.RT.Count() || refused != out.Refused || unfinished != out.Unfinished {
				t.Fatalf("per-VIP sums (%d/%d/%d) != aggregate (%d/%d/%d)",
					completed, refused, unfinished, out.RT.Count(), out.Refused, out.Unfinished)
			}
			if got := out.RT.Count() + out.Refused + out.Unfinished; got != offered {
				t.Fatalf("aggregate accounting: %d results for %d offered", got, offered)
			}
			if out.RT.Count() == 0 {
				t.Fatal("no queries completed at moderate load — run vacuous")
			}
		})
	}
}

// A multi-service sweep with mixed per-VIP workloads is byte-identical at
// 1 vs N Runner workers and across repeated runs with the same seeds.
func TestMultiServiceDeterminism(t *testing.T) {
	sweep := Sweep{
		Cluster:  ClusterConfig{Seed: 33, Servers: 4},
		Policies: []PolicySpec{RR(), SRc(4)},
		Loads:    []float64{0.7},
		Seeds:    DeriveSeeds(33, 2),
		Workload: MultiServiceWorkload{Services: testServices(400, 200)},
	}
	serial, err := Runner{Workers: 1}.RunSweep(context.Background(), sweep)
	if err != nil {
		t.Fatal(err)
	}
	parallel, err := Runner{Workers: 4}.RunSweep(context.Background(), sweep)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(stripWall(serial.Cells), stripWall(parallel.Cells)) {
		t.Fatal("multi-service sweep differs between 1 and 4 workers")
	}
	again, err := Runner{Workers: 4}.RunSweep(context.Background(), sweep)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(stripWall(parallel.Cells), stripWall(again.Cells)) {
		t.Fatal("multi-service sweep not reproducible across runs")
	}

	// The replication axis folds per VIP too: each service aggregates its
	// own across-seed stats, aligned and labeled.
	agg := serial.Aggregate()
	cs := agg.Cell(1, 0) // SR 4
	if cs.N() != 2 {
		t.Fatalf("aggregate has %d replicates, want 2", cs.N())
	}
	if len(cs.VIPs) != 3 {
		t.Fatalf("aggregate has %d VIP breakdowns, want 3", len(cs.VIPs))
	}
	for i, want := range []string{"web", "wiki", "batch"} {
		vs := cs.VIPs[i]
		if vs.Name != want {
			t.Fatalf("VIP %d named %q, want %q", i, vs.Name, want)
		}
		if vs.Offered.Dist.Mean == 0 {
			t.Fatalf("VIP %q aggregated zero offered queries", want)
		}
		if len(vs.Mean.Values) != 2 {
			t.Fatalf("VIP %q aggregated %d replicates, want 2", want, len(vs.Mean.Values))
		}
	}
}

// The workload label names every service, and single-VIP cells keep a nil
// per-VIP breakdown (no spurious VIPs entries in their aggregates).
func TestMultiServiceLabelsAndSingleVIPNil(t *testing.T) {
	w := MultiServiceWorkload{Services: testServices(100, 100)}
	label := w.Label()
	for _, want := range []string{"web:poisson", "wiki:wiki-day", "batch:bursty"} {
		if !strings.Contains(label, want) {
			t.Fatalf("label %q does not mention %q", label, want)
		}
	}
	cell := Scenario{
		Cluster:  ClusterConfig{Seed: 5, Servers: 4},
		Policy:   RR(),
		Workload: PoissonWorkload{Lambda0: 80, Queries: 300},
		Load:     0.5,
	}.Run(context.Background())
	if cell.Outcome.PerVIP != nil {
		t.Fatal("single-VIP workload must not produce a PerVIP breakdown")
	}
	if vips := newCellStats([]CellResult{cell}).VIPs; vips != nil {
		t.Fatal("single-VIP aggregate must keep VIPs nil")
	}
}

// RunMultiService produces per-(rho, policy, service) rows, including the
// aggregate, and the TSV renders one line per row.
func TestRunMultiServiceSmall(t *testing.T) {
	res := RunMultiService(MultiServiceConfig{
		Base:        Base{Cluster: ClusterConfig{Seed: 37, Servers: 4}, Queries: 400},
		Lambda0:     80,
		Rhos:        []float64{0.7},
		Compression: 5760,
		Policies:    []PolicySpec{RR(), SRc(4)},
	})
	if got, want := len(res.Services), 3; got != want {
		t.Fatalf("%d services, want %d", got, want)
	}
	// 1 rho × 2 policies × (1 aggregate + 3 services).
	if got, want := len(res.Rows), 8; got != want {
		t.Fatalf("%d rows, want %d", got, want)
	}
	for _, row := range res.Rows {
		if row.N != 1 {
			t.Fatalf("row %+v has N=%d, want 1", row, row.N)
		}
		if row.Service != "all" && row.Offered == 0 {
			t.Fatalf("service row %q offered nothing", row.Service)
		}
	}
	if _, err := res.Row("SR 4", "wiki", 0.7); err != nil {
		t.Fatal(err)
	}
	if _, err := res.Improvement("SR 4", "web", 0.7); err != nil {
		t.Fatal(err)
	}
	var buf strings.Builder
	if err := res.WriteTSV(&buf); err != nil {
		t.Fatal(err)
	}
	lines := strings.Count(buf.String(), "\n")
	if lines != 2+len(res.Rows) { // header comment + column header + rows
		t.Fatalf("TSV has %d lines, want %d", lines, 2+len(res.Rows))
	}
	checkGolden(t, "multiservice.tsv", buf.String())
	if series := res.PlotSeries("web"); len(series) != 2 {
		t.Fatalf("PlotSeries returned %d series, want 2", len(series))
	}
	// The per-service facets, as srlb-bench -plot renders them.
	facets := make([]plot.Facet, 0, len(res.Services))
	for _, svc := range res.Services {
		facets = append(facets, plot.Facet{
			Title:  fmt.Sprintf("Multi-service: %s mean response time (s) vs load", svc),
			Series: res.PlotSeries(svc),
		})
	}
	var chart strings.Builder
	if err := plot.RenderFacets(&chart, plot.Config{XLabel: "rho", YLabel: "rt(s)"}, facets...); err != nil {
		t.Fatal(err)
	}
	checkGolden(t, "multiservice_plot.txt", chart.String())
}

// Pinned-trace mode: replaying one recorded day across seeds must cut
// the across-seed variance of the wiki rows vs seed-derived days — with
// the trace (arrivals, page sequence, per-server cost streams) frozen,
// replicates differ only in the cluster's own randomness.
func TestWikiServicePinnedTraceCutsVariance(t *testing.T) {
	run := func(pinned bool) CellStats {
		agg, err := Runner{Workers: 4}.RunSweepStats(context.Background(), Sweep{
			Cluster:  ClusterConfig{Seed: 91, Servers: 4},
			Policies: []PolicySpec{SRc(4)},
			Loads:    []float64{0.8},
			Seeds:    DeriveSeeds(91, 4),
			Workload: MultiServiceWorkload{Services: []ServiceSpec{
				{Name: "wiki", Workload: WikiService{
					Day:    wiki.Config{Compression: 5760, FullPeakRate: 60, FullTroughRate: 30},
					Pinned: pinned,
				}},
			}},
		})
		if err != nil {
			t.Fatal(err)
		}
		cs := agg.Cell(0, 0)
		if cs.N() != 4 || len(cs.VIPs) != 1 {
			t.Fatalf("aggregate has n=%d, %d VIPs — want 4 replicates of 1 service", cs.N(), len(cs.VIPs))
		}
		return cs
	}
	pinnedCS, freeCS := run(true), run(false)
	if !strings.Contains(pinnedCS.VIPs[0].Workload, "pinned") {
		t.Fatalf("pinned run's workload label %q does not say so", pinnedCS.VIPs[0].Workload)
	}
	// A pinned day offers the identical query count every seed; a
	// seed-derived day resamples the NHPP and varies.
	if s := pinnedCS.VIPs[0].Offered.Dist.Std; s != 0 {
		t.Fatalf("pinned replay varies its offered count across seeds (std=%.2f)", s)
	}
	if s := freeCS.VIPs[0].Offered.Dist.Std; s == 0 {
		t.Fatal("seed-derived replay offered identical counts — day not seed-derived?")
	}
	pv, fv := pinnedCS.VIPs[0].Mean.Dist.Std, freeCS.VIPs[0].Mean.Dist.Std
	if pv >= fv {
		t.Fatalf("pinned across-seed mean-RT std %.6f not below seed-derived %.6f", pv, fv)
	}
	t.Logf("across-seed mean-RT std: pinned %.6fs vs seed-derived %.6fs", pv, fv)
}

// A batch-heavy service mix is where multi-service hunting pays off: the
// batch VIP's bursts must not be visible in the web VIP's outcome under
// Service Hunting any more than under RR — and within the batch VIP,
// SR4 must beat RR's tail as in the single-service bursty study.
func TestMultiServiceBatchIsolation(t *testing.T) {
	run := func(p PolicySpec) CellOutcome {
		w := MultiServiceWorkload{Services: testServices(800, 800)}
		out, err := w.Run(context.Background(), ClusterConfig{Seed: 41, Servers: 4}, p, 0.8)
		if err != nil {
			t.Fatal(err)
		}
		return out
	}
	rr, sr := run(RR()), run(SRc(4))
	// Pool separation is structural: web traffic is served by web servers
	// only, so batch bursts cannot refuse web queries. The interesting
	// comparison is within each service.
	if sr.PerVIP[2].RT.Quantile(0.95) >= rr.PerVIP[2].RT.Quantile(0.95) {
		t.Logf("note: SR4 batch p95 %v vs RR %v — hunting did not beat the spray on this seed",
			sr.PerVIP[2].RT.Quantile(0.95), rr.PerVIP[2].RT.Quantile(0.95))
	}
	for _, out := range []CellOutcome{rr, sr} {
		if out.PerVIP[0].OKFraction() < 0.95 {
			t.Fatalf("web service lost %.1f%% of queries at moderate load",
				100*(1-out.PerVIP[0].OKFraction()))
		}
	}
}
