package experiments

import (
	"context"
	"encoding/json"
	"strings"
	"testing"
	"time"

	"srlb/internal/feedback"
	"srlb/internal/plot"
)

// feedbackCluster is the policies experiment's cluster shape in
// miniature: a shared pool behind one or more replicas with the
// telemetry plane on.
func feedbackCluster(seed uint64, replicas int) ClusterConfig {
	return ClusterConfig{
		Seed: seed, Servers: 4,
		Replicas: replicas,
		Feedback: feedback.Config{Enabled: true},
	}
}

// Per-VIP conservation under flowlet re-steering, schemes × replicas:
// moving established flows mid-connection (and the close-ACKs that
// trigger it) must never unbalance the books — for every service,
// completions + refusals + unfinished still equals the queries offered
// to its VIP, and the per-VIP columns still sum to the aggregate. The
// flowlet rows additionally assert the mechanism really fired.
func TestPoliciesConservationUnderResteering(t *testing.T) {
	// A tight gap makes nearly every close-ACK a flowlet boundary, so
	// even test-sized runs see moves.
	flowletTight := FlowletPolicy(2 * time.Millisecond)
	cases := []struct {
		name        string
		policy      PolicySpec
		replicas    int
		wantResteer bool
	}{
		{"random2 single LB", Random2(), 1, false},
		{"chash2 single LB", CHash2(), 1, false},
		{"wleastload single LB", WeightedLeastLoadPolicy(), 1, false},
		{"flowlet single LB", flowletTight, 1, true},
		// Random selection across 2 replicas loses flows by construction;
		// re-steering must not make the books stop balancing.
		{"flowlet 2 replicas (lossy)", flowletTight, 2, true},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			w := sharedPoolServices(600, 8*time.Second)
			w.CloseAck = true
			out, err := w.Run(context.Background(), feedbackCluster(83, tc.replicas), tc.policy, 0.35)
			if err != nil {
				t.Fatal(err)
			}
			var completed, refused, unfinished int
			for _, vo := range out.PerVIP {
				if vo.Offered == 0 {
					t.Fatalf("service %q offered no queries — stream never opened", vo.Name)
				}
				if got := vo.RT.Count() + vo.Refused + vo.Unfinished; got != vo.Offered {
					t.Fatalf("service %q: %d completed + %d refused + %d unfinished != %d offered",
						vo.Name, vo.RT.Count(), vo.Refused, vo.Unfinished, vo.Offered)
				}
				completed += vo.RT.Count()
				refused += vo.Refused
				unfinished += vo.Unfinished
			}
			if completed != out.RT.Count() || refused != out.Refused || unfinished != out.Unfinished {
				t.Fatalf("per-VIP sums (%d/%d/%d) != aggregate (%d/%d/%d)",
					completed, refused, unfinished, out.RT.Count(), out.Refused, out.Unfinished)
			}
			ms := out.Cluster
			if tc.wantResteer && ms.Resteers == 0 {
				t.Fatal("flowlet policy never re-steered an established flow — mechanism vacuous")
			}
			if !tc.wantResteer && ms.Resteers != 0 {
				t.Fatalf("non-flowlet policy re-steered %d flows", ms.Resteers)
			}
			if ms.Rebinds != ms.Resteers {
				t.Fatalf("flow-table rebinds (%d) diverge from scheme re-steers (%d)", ms.Rebinds, ms.Resteers)
			}
		})
	}
}

// RunPolicies in miniature: the full four-policy ablation over both
// variants, with well-formed rows, the mechanism counter on every
// bursty flowlet cell, and working accessors and renderers.
func TestRunPoliciesSmall(t *testing.T) {
	res := RunPolicies(Base{Cluster: ClusterConfig{Seed: 89, Servers: 4}, Lambda0: 80, Queries: 300})
	if got, want := len(res.Variants), 2; got != want {
		t.Fatalf("%d variants, want %d", got, want)
	}
	if got, want := len(res.Services), 2; got != want {
		t.Fatalf("%d services, want %d", got, want)
	}
	// 2 variants × 4 batch rhos × 4 policies × (1 aggregate + 2 services).
	if got, want := len(res.Rows), 96; got != want {
		t.Fatalf("%d rows, want %d", got, want)
	}
	for _, row := range res.Rows {
		if row.N != 1 {
			t.Fatalf("row %+v has N=%d, want 1", row, row.N)
		}
		if row.Offered == 0 {
			t.Fatalf("row %s/%s/%s offered nothing", row.Variant, row.Policy, row.Service)
		}
		if row.Service == "web" && row.Load != 0.55 {
			t.Fatalf("web row carries load %.2f, want the pinned 0.55", row.Load)
		}
		if row.Service == "batch" && row.Load != row.Rho {
			t.Fatalf("batch row carries load %.2f, want its own axis %.2f", row.Load, row.Rho)
		}
		if row.Service != "all" && row.Resteers != 0 {
			t.Fatalf("service row %s/%s carries resteers %.1f, want 0 (aggregate-only counter)",
				row.Policy, row.Service, row.Resteers)
		}
		if row.Policy != "flowlet" && row.Resteers != 0 {
			t.Fatalf("policy %s re-steered %.1f flows", row.Policy, row.Resteers)
		}
	}
	// The acceptance bar: the flowlet policy moves at least one
	// established flow in every bursty cell, both variants.
	for _, variant := range res.Variants {
		for _, rho := range res.BatchRhos {
			row, err := res.Row(variant, "flowlet", "all", rho)
			if err != nil {
				t.Fatal(err)
			}
			if row.Resteers < 1 {
				t.Fatalf("flowlet[%s] at batch_rho=%.2f re-steered %.1f flows, want ≥ 1", variant, rho, row.Resteers)
			}
		}
		if res.TotalResteers(variant, "flowlet") < 2 {
			t.Fatalf("flowlet[%s] total resteers below the per-cell floor", variant)
		}
		if res.TotalResteers(variant, "random2") != 0 {
			t.Fatalf("random2[%s] reports resteers", variant)
		}
	}
	if _, err := res.Row("churn", "wleastload", "web", 0.35); err != nil {
		t.Fatal(err)
	}
	if _, err := res.Row("steady", "nosuch", "web", 0.1); err == nil {
		t.Fatal("Row for an unknown policy must error")
	}
	tsv := render(t, res.TSV())
	if lines := strings.Count(tsv, "\n"); lines != 2+len(res.Rows) {
		t.Fatalf("TSV has %d lines, want %d", lines, 2+len(res.Rows))
	}
	checkGolden(t, "policies.tsv", tsv)
	// One facet per (variant, service), each with all four policies.
	facets := res.PlotFacets()
	if len(facets) != 4 {
		t.Fatalf("PlotFacets returned %d facets, want 4", len(facets))
	}
	for _, f := range facets {
		if len(f.Series) != 4 {
			t.Fatalf("facet %q has %d series, want 4", f.Title, len(f.Series))
		}
	}
	var chart strings.Builder
	if err := plot.RenderFacets(&chart, plot.Config{XLabel: "batch rho", YLabel: "p99(s)"}, facets...); err != nil {
		t.Fatal(err)
	}
	checkGolden(t, "policies_plot.txt", chart.String())
}

// The determinism contract survives the feedback plane: a full
// RunPolicies grid — load-aware scheme state, periodic report ticks,
// flowlet rebinds and all — is byte-identical at 1 vs 4 Runner workers
// (runs under -race -shuffle=on in CI).
func TestRunPoliciesDeterminism(t *testing.T) {
	cfg := Base{Cluster: ClusterConfig{Seed: 97, Servers: 4}, Lambda0: 80, Queries: 150, Seeds: DeriveSeeds(97, 2)}
	serialCfg, parallelCfg := cfg, cfg
	serialCfg.Workers = 1
	parallelCfg.Workers = 4
	serial := RunPolicies(serialCfg)
	parallel := RunPolicies(parallelCfg)
	a, err := json.Marshal(serial.Rows)
	if err != nil {
		t.Fatal(err)
	}
	b, err := json.Marshal(parallel.Rows)
	if err != nil {
		t.Fatal(err)
	}
	if string(a) != string(b) {
		t.Fatal("policies grid differs between 1 and 4 workers with feedback enabled")
	}
	if serial.TotalResteers("steady", "flowlet") != parallel.TotalResteers("steady", "flowlet") {
		t.Fatal("re-steer counts differ between worker counts")
	}
}
