package experiments

import (
	"encoding/json"
	"strings"
	"testing"
)

// testResilienceConfig is a small but honest instance of the study's
// own schedule: two anycast replicas, a mid-run kill and a fast recover
// at rho 0.85, with the outage shorter than the SYN-retransmission
// backoff horizon so retrying flows span it.
func testResilienceConfig() ResilienceConfig {
	return ResilienceConfig{
		Base:    Base{Cluster: ClusterConfig{Seed: 71, Servers: 4}, Queries: 3000, Seeds: DeriveSeeds(71, 2)},
		Lambda0: 80,
	}
}

// The ablation's claim, pinned on a fixed seed: in every scenario, warm
// handoff completes at least as much as the chash miss-fallback, which
// completes strictly more than a stateless-random restart. Where warm
// handoff strictly wins is TestResilienceWarmBeatsChashOnKill's.
func TestResilienceKillOrdering(t *testing.T) {
	if testing.Short() {
		t.Skip("multi-cell sweep")
	}
	res := RunResilience(testResilienceConfig())
	if len(res.Rows) != 9 {
		t.Fatalf("%d rows, want the 3×3 grid", len(res.Rows))
	}
	for _, scenario := range resilienceScenarios {
		warm, err := res.Row(scenario, "warm")
		if err != nil {
			t.Fatal(err)
		}
		chash, err := res.Row(scenario, "chash")
		if err != nil {
			t.Fatal(err)
		}
		stateless, err := res.Row(scenario, "stateless")
		if err != nil {
			t.Fatal(err)
		}
		if warm.N != 2 || chash.N != 2 || stateless.N != 2 {
			t.Fatalf("%s: replicates = %d/%d/%d, want 2 each", scenario, warm.N, chash.N, stateless.N)
		}
		if warm.OKFrac < chash.OKFrac {
			t.Errorf("%s: warm ok=%.4f below chash ok=%.4f", scenario, warm.OKFrac, chash.OKFrac)
		}
		if chash.OKFrac <= stateless.OKFrac {
			t.Errorf("%s: chash ok=%.4f not above stateless ok=%.4f", scenario, chash.OKFrac, stateless.OKFrac)
		}
	}
	// The TSV facets by scenario and carries the completion columns.
	out := render(t, res.TSV())
	for _, want := range []string{"# facet: scenario=kill", "# facet: scenario=rack", "# facet: scenario=rolling", "ok_frac\tok_frac_ci95"} {
		if !strings.Contains(out, want) {
			t.Fatalf("TSV missing %q:\n%s", want, out)
		}
	}
	if _, err := res.Row("kill", "lukewarm"); err == nil {
		t.Fatal("unknown mode did not error")
	}
}

// The kill scenario is the acceptance case: warm handoff must strictly
// beat the chash fallback's guessing — the restarted replica holds real
// bindings for flows the consistent hash would mis-steer. Those are
// second-candidate acceptances, common only when the pool runs hot, and
// flows still retrying when the replica returns, so the kill and warm
// cells run at rho 0.9 with the replica back at 0.43 of the span, just
// after the kill at 0.4. At the study's own rho 0.85 and recover 0.45
// the two rows tie on this seed.
func TestResilienceWarmBeatsChashOnKill(t *testing.T) {
	if testing.Short() {
		t.Skip("multi-cell sweep")
	}
	res := runResilience(testResilienceConfig(), []string{"kill"}, []string{"chash", "warm"}, 0.9, 0.43)
	warm, err := res.Row("kill", "warm")
	if err != nil {
		t.Fatal(err)
	}
	chash, err := res.Row("kill", "chash")
	if err != nil {
		t.Fatal(err)
	}
	if warm.N != 2 || chash.N != 2 {
		t.Fatalf("replicates = %d/%d, want 2 each", warm.N, chash.N)
	}
	if warm.OKFrac <= chash.OKFrac {
		t.Errorf("kill: warm ok=%.4f does not strictly beat chash ok=%.4f", warm.OKFrac, chash.OKFrac)
	}
}

// The runner's determinism contract extends through RunResilience: the
// marshalled row grid is byte-identical at 1 vs 4 workers.
func TestResilienceParallelEqualsSerial(t *testing.T) {
	if testing.Short() {
		t.Skip("multi-cell sweep")
	}
	cfg := testResilienceConfig()
	cfg.Workers = 1
	serial := RunResilience(cfg)
	cfg.Workers = 4
	parallel := RunResilience(cfg)
	sj, err := json.Marshal(serial.Rows)
	if err != nil {
		t.Fatal(err)
	}
	pj, err := json.Marshal(parallel.Rows)
	if err != nil {
		t.Fatal(err)
	}
	if string(sj) != string(pj) {
		t.Fatalf("rows differ between 1 and 4 workers:\n%s\n%s", sj, pj)
	}
}
