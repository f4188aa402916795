package experiments

import (
	"context"
	"fmt"
	"strings"
	"testing"

	"srlb/internal/wiki"
)

// Goldens for the open-loop consumers outside the multi-service family:
// every artifact below is a pure function of its config, so a change to
// how a cell is built, pumped, run or drained shows up as a byte diff.
// Lambda0 is pinned everywhere (no calibration run) and feedback is off.

func goldenTSV(t *testing.T, name string, f TSV) {
	t.Helper()
	checkGolden(t, name, render(t, f))
}

var (
	goldenFig2Config = Fig2Config{
		Cluster:  smallCluster(4),
		Lambda0:  80,
		Rhos:     []float64{0.3, 0.88},
		Policies: []PolicySpec{RR(), SRc(4), SRdyn()},
		Queries:  1500,
		Seeds:    DeriveSeeds(4, 2),
	}
	goldenBurstyConfig = Fig2Config{
		Cluster:  smallCluster(4),
		Lambda0:  80,
		Rhos:     []float64{0.3, 0.88},
		Policies: []PolicySpec{RR(), SRc(4)},
		Seeds:    DeriveSeeds(4, 2),
		Workload: OneService(BurstyService{Lambda0: 80, Queries: 1500, PeakFactor: 4}),
	}
)

func TestGoldenFig2(t *testing.T) {
	goldenTSV(t, "fig2.tsv", RunFig2(goldenFig2Config).TSV())
}

func TestGoldenBursty(t *testing.T) {
	goldenTSV(t, "bursty.tsv", RunFig2(goldenBurstyConfig).TSV())
}

func TestGoldenFig4(t *testing.T) {
	res := RunFig4(Base{Cluster: smallCluster(7), Lambda0: 80, Queries: 2000})
	goldenTSV(t, "fig4.tsv", res.TSV())
}

func TestGoldenFailover(t *testing.T) {
	res := RunFailover(Base{Cluster: smallCluster(31), Lambda0: 80, Queries: 2000, Seeds: DeriveSeeds(31, 2)})
	goldenTSV(t, "failover.tsv", res.TSV())
}

// The RTO path: silent-drop servers plus client SYN retransmission, the
// one consumer that stretches the horizon guard.
func goldenRetransmit() RetransmitResult {
	return RunRetransmitAblation(Base{Cluster: ClusterConfig{Seed: 21, Servers: 4, Server: serverWithBacklog(8)}, Lambda0: 80, Queries: 1500})
}

func TestGoldenRetransmit(t *testing.T) {
	goldenTSV(t, "retransmit.tsv", goldenRetransmit().TSV())
}

// The four studies below are otherwise pinned only in their replicated
// (-seeds 2) form, by cmd/srlb-bench's black-box cases; these are their
// single-seed column sets. TestStudySummaries reads the same runs.
func goldenHetero() HeteroResult {
	return RunHetero(Base{Cluster: smallCluster(31), Queries: 3000})
}

func goldenAblations() []AblationResult {
	return RunAllAblations(Base{Cluster: smallCluster(9), Lambda0: 80, Queries: 1500})
}

func goldenChurn() ChurnResult {
	return RunChurn(Base{Cluster: smallCluster(47), Lambda0: 80, Queries: 2000})
}

func goldenResilience() ResilienceResult {
	return RunResilience(Base{Cluster: smallCluster(71), Lambda0: 80, Queries: 2000})
}

func TestGoldenHetero(t *testing.T) { goldenTSV(t, "hetero.tsv", goldenHetero().TSV()) }

func TestGoldenAblations(t *testing.T) {
	results := goldenAblations()
	var f TSV
	for _, r := range results {
		f.Tables = append(f.Tables, r.TSV().Tables...)
	}
	goldenTSV(t, "ablations.tsv", f)
}

func TestGoldenChurn(t *testing.T) { goldenTSV(t, "churn.tsv", goldenChurn().TSV()) }

func TestGoldenResilience(t *testing.T) {
	goldenTSV(t, "resilience.tsv", goldenResilience().TSV())
}

// TestStudySummaries pins what cmd/srlb-bench prints in the summary lines
// of the retransmit, hetero, resilience and churn entries — the accessors
// and row fields the TSV goldens above do not reach (or reach only
// rounded) — at the values the golden runs return.
func TestStudySummaries(t *testing.T) {
	var got []string
	linef := func(format string, args ...any) { got = append(got, fmt.Sprintf(format, args...)) }

	for _, row := range goldenRetransmit().Rows {
		linef("%-30s p99=%.3fs refused=%d timeouts=%d retransmits=%d n=%d",
			row.Variant, row.P99.Seconds(), row.RefusedCount(), row.TimedOut, row.Retransmits, row.N)
	}
	hetero := goldenHetero()
	for _, row := range hetero.Rows {
		linef("%-7s mean=%.3fs slow-share=%.6f (capacity share %.3f) refused=%d n=%d",
			row.Policy, row.Mean.Seconds(), row.SlowShare, hetero.CapacityShare, row.RefusedCount(), row.N)
	}
	resilience := goldenResilience()
	for _, scenario := range resilienceScenarios {
		for _, mode := range []string{"warm", "chash", "stateless"} {
			row, err := resilience.Row(scenario, mode)
			if err != nil {
				t.Fatal(err)
			}
			linef("%s/%-10s ok=%.4f±%.4f refused=%.0f unfinished=%.0f (n=%d)",
				scenario, mode, row.OKFrac, row.OKFracCI95, row.Refused, row.Unfinished, row.N)
		}
	}
	if _, err := resilience.Row("kill", "lukewarm"); err == nil {
		t.Error("Row found a mode that does not exist")
	}
	linef("replica kill at %.0f%% of span, recover at %.0f%%; rack loses %.0f%% of servers",
		100*resilience.KillFrac, 100*resilience.RecoverFrac, 100*resilience.RackFrac)
	churn := goldenChurn()
	for _, name := range []string{"RR", "SR 4", "SR dyn"} {
		// 0.6, 0.8 and 0.9 resolve to the 0.5, 0.75 and 0.95 rows.
		for _, rho := range []float64{0.6, 0.8, 0.9} {
			pen, err := churn.ChurnPenalty(name, rho)
			if err != nil {
				t.Fatal(err)
			}
			linef("churn penalty %-7s at rho=%.2f: %.6fx", name, rho, pen)
		}
	}
	if _, err := churn.ChurnPenalty("SR 64", 0.95); err == nil {
		t.Error("ChurnPenalty found a policy that did not run")
	}

	want := strings.Split(strings.TrimSpace(studySummaries), "\n")
	for i := 0; i < len(got) || i < len(want); i++ {
		var g, w string
		if i < len(got) {
			g = got[i]
		}
		if i < len(want) {
			w = want[i]
		}
		if g != w {
			t.Errorf("line %d:\n got: %q\nwant: %q", i+1, g, w)
		}
	}
}

const studySummaries = `
abort-on-overflow (RST)        p99=6.709s refused=554 timeouts=0 retransmits=0 n=1
silent-drop + SYN retransmit   p99=10.773s refused=0 timeouts=113 retransmits=2434 n=1
RR      mean=2.464s slow-share=0.219436 (capacity share 0.143) refused=129 n=1
SR 4    mean=0.317s slow-share=0.156667 (capacity share 0.143) refused=0 n=1
SR dyn  mean=0.440s slow-share=0.167667 (capacity share 0.143) refused=0 n=1
kill/warm       ok=0.7960±0.0000 refused=408 unfinished=0 (n=1)
kill/chash      ok=0.7950±0.0000 refused=410 unfinished=0 (n=1)
kill/stateless  ok=0.5630±0.0000 refused=326 unfinished=548 (n=1)
rack/warm       ok=0.6890±0.0000 refused=622 unfinished=0 (n=1)
rack/chash      ok=0.6860±0.0000 refused=628 unfinished=0 (n=1)
rack/stateless  ok=0.4935±0.0000 refused=536 unfinished=477 (n=1)
rolling/warm       ok=0.8160±0.0000 refused=368 unfinished=0 (n=1)
rolling/chash      ok=0.8150±0.0000 refused=370 unfinished=0 (n=1)
rolling/stateless  ok=0.6200±0.0000 refused=339 unfinished=421 (n=1)
replica kill at 40% of span, recover at 45%; rack loses 25% of servers
churn penalty RR      at rho=0.60: 1.076977x
churn penalty RR      at rho=0.80: 1.737028x
churn penalty RR      at rho=0.90: 2.414806x
churn penalty SR 4    at rho=0.60: 1.040747x
churn penalty SR 4    at rho=0.80: 1.997375x
churn penalty SR 4    at rho=0.90: 4.151985x
churn penalty SR dyn  at rho=0.60: 1.045980x
churn penalty SR dyn  at rho=0.80: 2.082845x
churn penalty SR dyn  at rho=0.90: 4.094254x
`

// goldenWiki is the §VI replay TestGoldenWiki pins; TestWikiSketchView
// reads the same runs.
func goldenWiki() WikiResult {
	return RunWiki(WikiConfig{
		Cluster: ClusterConfig{Seed: 8, Servers: 12},
		Day:     wiki.Config{Seed: 8, Compression: 2880},
	})
}

func TestGoldenWiki(t *testing.T) {
	res := goldenWiki()
	goldenTSV(t, "wiki_fig6.tsv", res.Fig6())
	goldenTSV(t, "wiki_fig7.tsv", res.Fig7())
	goldenTSV(t, "wiki_fig8.tsv", res.Fig8())
}

// Summary minus the lines that depend on the host (heap, wall
// clock): what is left is the simulation's own outcome.
func TestGoldenHorizonSummary(t *testing.T) {
	res, err := RunHorizon(context.Background(), horizonCfg(20000))
	if err != nil {
		t.Fatal(err)
	}
	var kept []string
	for _, line := range strings.Split(res.Summary(), "\n") {
		key, _, _ := strings.Cut(line, "\t")
		if key == "peak_heap_mb" || key == "wall" || key == "qps" {
			continue
		}
		kept = append(kept, line)
	}
	checkGolden(t, "horizon_summary.txt", strings.Join(kept, "\n"))
}
