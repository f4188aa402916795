package experiments

import (
	"context"
	"reflect"
	"strings"
	"testing"
	"time"

	"srlb/internal/agent"
	"srlb/internal/appserver"
	"srlb/internal/plot"
	"srlb/internal/testbed"
)

// sharedPoolServices is a small web+batch mix contending on one shared
// pool, with the batch axis pinned per cell via ServiceLoads: web fixed
// at 0.5, batch tracking the cell's load knob.
func sharedPoolServices(webQ int, span time.Duration) MultiServiceWorkload {
	return MultiServiceWorkload{
		Services: []ServiceSpec{
			{Name: "web", Pool: "shared", Workload: PoissonService{Lambda0: 80, Queries: webQ}},
			// Sub-second burst cycles so every test-sized horizon sees
			// several ON periods.
			{Name: "batch", Pool: "shared", Workload: BurstyService{
				Lambda0: 80, Horizon: span, PeakFactor: 4,
				MeanOn: 500 * time.Millisecond, MeanOff: time.Second,
			}},
		},
		ServiceLoads: []ServiceLoad{{Fixed: 0.5}, {}},
		Pools:        []testbed.PoolSpec{{Name: "shared"}},
	}
}

// Per-VIP conservation on a *shared* pool, table-driven over selection
// schemes × replica counts: for each service, completions + refusals +
// unfinished must equal the queries offered to its VIP, the per-VIP
// columns must sum to the aggregate, and every response a shared server
// emits is attributable to exactly one VIP — even in the structurally
// lossy random-selection multi-replica configuration.
func TestSharedPoolConservation(t *testing.T) {
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
		// Random selection across 2 replicas loses flows by construction;
		// the books must still balance, with the losses in Unfinished.
		{"random 2 replicas (lossy)", SRc(4), 2, false, false},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			cluster := ClusterConfig{
				Seed: 61, Servers: 4,
				Replicas:       tc.replicas,
				ConsistentHash: tc.chash,
				MissFallback:   tc.missFallback,
			}
			w := sharedPoolServices(600, 8*time.Second)
			out, err := w.Run(context.Background(), cluster, tc.policy, 0.3)
			if err != nil {
				t.Fatal(err)
			}
			if len(out.PerVIP) != 2 {
				t.Fatalf("PerVIP has %d entries, want 2", len(out.PerVIP))
			}
			// The per-service load axis must ride into the outcome: web
			// pinned, batch at the cell's knob.
			if out.PerVIP[0].Load != 0.5 || out.PerVIP[1].Load != 0.3 {
				t.Fatalf("resolved loads = %.2f/%.2f, want 0.50/0.30",
					out.PerVIP[0].Load, out.PerVIP[1].Load)
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
			if out.RT.Count() == 0 {
				t.Fatal("no queries completed at moderate load — run vacuous")
			}
		})
	}
}

// Per-server attribution on the shared pool: build the same two-service
// topology directly and check each server's per-VIP response ledger sums
// to its responses_tx — busy time is attributable to exactly one VIP at
// a time, with both services actually landing on shared workers.
func TestSharedPoolServerAttribution(t *testing.T) {
	w := sharedPoolServices(500, 6*time.Second)
	cluster := ClusterConfig{Seed: 67, Servers: 3}.withDefaults()
	spec := SRc(4)
	pools := []testbed.PoolSpec{{
		Name: "shared", Servers: cluster.Servers, Server: cluster.Server,
		Policy: func(int) agent.Policy { return spec.NewAgent() },
	}}
	vips := make([]testbed.VIPSpec, len(w.Services))
	for i, svc := range w.Services {
		vs := cluster.vipSpec(spec)
		vs.Name = svc.name(i)
		vs.Pool = "shared"
		vs.Servers = 0
		vs.Server = appserver.Config{}
		vs.ServerOverride = nil
		vs.Policy = nil
		vips[i] = vs
	}
	tb := testbed.Build(testbed.Topology{Seed: cluster.Seed, Pools: pools, VIPs: vips})
	for i := 0; i < 400; i++ {
		q := testbed.Query{ID: uint64(i), Demand: 8 * time.Millisecond}
		if i%2 == 1 {
			q.VIP = tb.VIPAddrOf(1)
		}
		tb.Sim.At(time.Duration(i)*2*time.Millisecond, func() { tb.Gen.Launch(q) })
	}
	tb.Sim.Run()
	tb.Gen.DrainPending()
	var web, batch uint64
	for i := 0; i < cluster.Servers; i++ {
		rt := tb.RouterOf(0, i)
		a, b := rt.VIPResponses(tb.VIPAddrOf(0)), rt.VIPResponses(tb.VIPAddrOf(1))
		if total := rt.Counts.Get("responses_tx"); a+b != total {
			t.Fatalf("server %d: per-VIP responses %d+%d != total %d", i, a, b, total)
		}
		web += a
		batch += b
	}
	if web == 0 || batch == 0 {
		t.Fatalf("attribution vacuous: web=%d batch=%d responses", web, batch)
	}
}

// A shared-pool sweep with per-service load axes is byte-identical at
// 1 vs N Runner workers and across repeated runs — the contention regime
// keeps the determinism contract (runs under -race -shuffle=on in CI).
func TestSharedPoolDeterminism(t *testing.T) {
	sweep := Sweep{
		Cluster:  ClusterConfig{Seed: 71, Servers: 4},
		Policies: []PolicySpec{RR(), SRc(4)},
		Loads:    []float64{0.2, 0.4},
		Seeds:    DeriveSeeds(71, 2),
		Workload: sharedPoolServices(400, 6*time.Second),
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
		t.Fatal("shared-pool sweep differs between 1 and 4 workers")
	}
	again, err := Runner{Workers: 4}.RunSweep(context.Background(), sweep)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(stripWall(parallel.Cells), stripWall(again.Cells)) {
		t.Fatal("shared-pool sweep not reproducible across runs")
	}
	// The per-service loads fold into the aggregate: web pinned at 0.5
	// in every cell, batch tracking the load axis.
	agg := serial.Aggregate()
	for li, rho := range sweep.Loads {
		cs := agg.Cell(0, li)
		if len(cs.VIPs) != 2 {
			t.Fatalf("cell has %d VIP breakdowns, want 2", len(cs.VIPs))
		}
		if cs.VIPs[0].Load != 0.5 || cs.VIPs[1].Load != rho {
			t.Fatalf("aggregated loads = %.2f/%.2f, want 0.50/%.2f",
				cs.VIPs[0].Load, cs.VIPs[1].Load, rho)
		}
	}
}

// RunInterference produces per-(batch_rho, policy, service) rows with
// degradation columns anchored at the lowest batch load, and the TSV
// renders one line per row.
func TestRunInterferenceSmall(t *testing.T) {
	res := RunInterference(InterferenceConfig{
		Base:      Base{Cluster: ClusterConfig{Seed: 73, Servers: 4}, Queries: 600},
		Lambda0:   80,
		WebRho:    0.4,
		BatchRhos: []float64{0.1, 0.5},
		Policies:  []PolicySpec{RR(), SRc(4)},
	})
	if got, want := len(res.Services), 2; got != want {
		t.Fatalf("%d services, want %d", got, want)
	}
	// 2 batch rhos × 2 policies × (1 aggregate + 2 services).
	if got, want := len(res.Rows), 12; got != want {
		t.Fatalf("%d rows, want %d", got, want)
	}
	for _, row := range res.Rows {
		if row.N != 1 {
			t.Fatalf("row %+v has N=%d, want 1", row, row.N)
		}
		if row.Service == "web" && row.Load != 0.4 {
			t.Fatalf("web row at batch_rho=%.2f carries load %.2f, want the pinned 0.40", row.Rho, row.Load)
		}
		if row.Service == "batch" && row.Load != row.Rho {
			t.Fatalf("batch row carries load %.2f, want its own axis %.2f", row.Load, row.Rho)
		}
		if row.Rho == res.BatchRhos[0] && row.P99Degradation != 1 {
			t.Fatalf("baseline row %s/%s has degradation %.2f, want 1", row.Policy, row.Service, row.P99Degradation)
		}
	}
	if _, err := res.Row("SR 4", "web", 0.5); err != nil {
		t.Fatal(err)
	}
	if _, err := res.VictimDegradation("RR"); err != nil {
		t.Fatal(err)
	}
	var buf strings.Builder
	if err := res.WriteTSV(&buf); err != nil {
		t.Fatal(err)
	}
	if lines := strings.Count(buf.String(), "\n"); lines != 2+len(res.Rows) {
		t.Fatalf("TSV has %d lines, want %d", lines, 2+len(res.Rows))
	}
	checkGolden(t, "interference.tsv", buf.String())
	facets := res.PlotFacets()
	if len(facets) != 2 {
		t.Fatalf("PlotFacets returned %d facets, want 2", len(facets))
	}
	var chart strings.Builder
	if err := plot.RenderFacets(&chart, plot.Config{XLabel: "batch rho", YLabel: "p99(s)"}, facets...); err != nil {
		t.Fatal(err)
	}
	checkGolden(t, "interference_plot.txt", chart.String())
}

// The experiment's claim, in miniature: under a heavy-but-serviceable
// batch surge on the shared pool (total ρ ≈ 0.85), the victim's mean and
// p99 under Service Hunting must not exceed the random spray's —
// contention is where the choices pay. (In deep overload the two
// converge: when every worker queues, there is nothing left to choose.)
func TestInterferenceVictimOrdering(t *testing.T) {
	res := RunInterference(InterferenceConfig{
		Base:      Base{Cluster: ClusterConfig{Seed: 79, Servers: 4}, Queries: 3000, Seeds: DeriveSeeds(79, 3)},
		Lambda0:   80,
		WebRho:    0.5,
		BatchRhos: []float64{0.1, 0.35},
		Policies:  []PolicySpec{RR(), SRc(4)},
	})
	rr, err := res.Row("RR", "web", 0.35)
	if err != nil {
		t.Fatal(err)
	}
	sr, err := res.Row("SR 4", "web", 0.35)
	if err != nil {
		t.Fatal(err)
	}
	if sr.Mean > rr.Mean {
		t.Fatalf("victim mean under SR4 (%v) above RR (%v) at heavy batch load", sr.Mean, rr.Mean)
	}
	if sr.P99 > rr.P99 {
		t.Fatalf("victim p99 under SR4 (%v) above RR (%v) at heavy batch load", sr.P99, rr.P99)
	}
	// And the surge must actually have hurt: the victim's p99 at the
	// heavy batch load degrades visibly vs the light-batch baseline.
	if deg, err := res.VictimDegradation("RR"); err != nil || deg < 1.5 {
		t.Fatalf("RR victim degradation = %.2f (err=%v) — interference not exercised", deg, err)
	}
}
