package experiments

import (
	"bytes"
	"context"
	"fmt"
	"io"
	"strings"
	"testing"
	"time"

	"srlb/internal/testbed"
	"srlb/internal/trace"
	"srlb/internal/wiki"
)

// Goldens for the open-loop consumers outside the multi-service family:
// every artifact below is a pure function of its config, so a change to
// how a cell is built, pumped, run or drained shows up as a byte diff.
// Lambda0 is pinned everywhere (no calibration run) and feedback is off.

func goldenTSV(t *testing.T, name string, write func(io.Writer) error) {
	t.Helper()
	var buf bytes.Buffer
	if err := write(&buf); err != nil {
		t.Fatal(err)
	}
	checkGolden(t, name, buf.String())
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
		Workload: OneService(BurstyService{Lambda0: 80, Queries: 1500, PeakFactor: 4, MeanOn: time.Second, MeanOff: 5 * time.Second}),
	}
)

func TestGoldenFig2(t *testing.T) {
	goldenTSV(t, "fig2.tsv", RunFig2(goldenFig2Config).WriteTSV)
}

func TestGoldenBursty(t *testing.T) {
	goldenTSV(t, "bursty.tsv", RunFig2(goldenBurstyConfig).WriteTSV)
}

func TestGoldenFig4(t *testing.T) {
	res := RunFig4(Fig4Config{
		Base:    Base{Cluster: smallCluster(7), Queries: 2000},
		Lambda0: 80,
	})
	goldenTSV(t, "fig4.tsv", res.WriteTSV)
}

func TestGoldenFailover(t *testing.T) {
	res := RunFailover(FailoverConfig{
		Base:        Base{Cluster: smallCluster(31), Queries: 2000, Seeds: DeriveSeeds(31, 2)},
		Lambda0:     80,
		RecoverFrac: 0.75,
		Bins:        10,
	})
	goldenTSV(t, "failover.tsv", res.WriteTSV)
}

// The RTO path: silent-drop servers plus client SYN retransmission, the
// one consumer that stretches the horizon guard.
func goldenRetransmit() RetransmitResult {
	return RunRetransmitAblation(RetransmitConfig{
		Base:    Base{Cluster: ClusterConfig{Seed: 21, Servers: 4, Server: serverWithBacklog(8)}, Queries: 1500},
		Rho:     2.0,
		Lambda0: 80,
		RTO:     time.Second,
	})
}

func TestGoldenRetransmit(t *testing.T) {
	goldenTSV(t, "retransmit.tsv", goldenRetransmit().WriteTSV)
}

// The four studies below are otherwise pinned only in their replicated
// (-seeds 2) form, by cmd/srlb-bench's black-box cases; these are their
// single-seed column sets. TestStudySummaries reads the same runs.
func goldenHetero() HeteroResult {
	return RunHetero(HeteroConfig{Base: Base{Cluster: smallCluster(31), Queries: 3000}})
}

func goldenAblations() []AblationResult {
	return RunAllAblations(AblationConfig{Base: Base{Cluster: smallCluster(9), Queries: 1500}, Lambda0: 80})
}

func goldenChurn() ChurnResult {
	return RunChurn(ChurnConfig{
		Base:    Base{Cluster: smallCluster(47), Queries: 2000},
		Lambda0: 80,
		Rhos:    []float64{0.5, 0.95},
		ChurnBy: 1,
	})
}

func goldenResilience() ResilienceResult {
	return RunResilience(ResilienceConfig{Base: Base{Cluster: smallCluster(71), Queries: 2000}, Lambda0: 80})
}

func TestGoldenHetero(t *testing.T) { goldenTSV(t, "hetero.tsv", goldenHetero().WriteTSV) }

func TestGoldenAblations(t *testing.T) {
	results := goldenAblations()
	goldenTSV(t, "ablations.tsv", func(w io.Writer) error {
		for _, r := range results {
			if err := r.WriteTSV(w); err != nil {
				return err
			}
			fmt.Fprintln(w)
		}
		return nil
	})
}

func TestGoldenChurn(t *testing.T) { goldenTSV(t, "churn.tsv", goldenChurn().WriteTSV) }

func TestGoldenResilience(t *testing.T) {
	goldenTSV(t, "resilience.tsv", goldenResilience().WriteTSV)
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
		// 0.7 is nearer 0.5; 0.8 and 0.95 resolve to the 0.95 rows.
		for _, rho := range []float64{0.7, 0.8, 0.95} {
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
churn penalty RR      at rho=0.70: 1.076977x
churn penalty RR      at rho=0.80: 2.414806x
churn penalty RR      at rho=0.95: 2.414806x
churn penalty SR 4    at rho=0.70: 1.040747x
churn penalty SR 4    at rho=0.80: 4.151985x
churn penalty SR 4    at rho=0.95: 4.151985x
churn penalty SR dyn  at rho=0.70: 1.045980x
churn penalty SR dyn  at rho=0.80: 4.094254x
churn penalty SR dyn  at rho=0.95: 4.094254x
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
	goldenTSV(t, "wiki_fig6.tsv", res.WriteFig6TSV)
	goldenTSV(t, "wiki_fig7.tsv", res.WriteFig7TSV)
	goldenTSV(t, "wiki_fig8.tsv", res.WriteFig8TSV)
}

// goldenTraceReplay is a recorded trace replayed at 2x on a cluster that
// gains a server halfway through: the rate-relative event resolves
// against the trace's own span, and the late server gets its own replica
// cache.
func goldenTraceReplay(t *testing.T) (int, CellResult) {
	t.Helper()
	var raw bytes.Buffer
	if _, _, err := wiki.Synthesize(wiki.Config{Seed: 11, Compression: 2880}, trace.NewWriter(&raw)); err != nil {
		t.Fatal(err)
	}
	entries, err := trace.ReadAll(&raw)
	if err != nil {
		t.Fatal(err)
	}
	cluster := ClusterConfig{Seed: 11, Servers: 11,
		Events: []testbed.Event{testbed.AddServer(0, 0).AtFraction(0.5)}}
	cell := Scenario{Cluster: cluster, Policy: SRc(4),
		Workload: TraceWorkload{Entries: entries, BinWidth: 10 * time.Second}, Load: 2}.Run(context.Background())
	if cell.Err != nil {
		t.Fatal(cell.Err)
	}
	return len(entries), cell
}

func TestGoldenTraceReplay(t *testing.T) {
	entries, cell := goldenTraceReplay(t)
	run := *cell.Outcome.Wiki

	var b strings.Builder
	fmt.Fprintf(&b, "entries\t%d\n", entries)
	fmt.Fprintf(&b, "cell\tok=%d\tmean_ns=%d\trefused=%d\tunfinished=%d\n",
		cell.Outcome.RT.Count(), cell.Outcome.RT.Mean(), cell.Outcome.Refused, cell.Outcome.Unfinished)
	fmt.Fprintf(&b, "wiki\tn=%d\tmean_ns=%d\tp50_ns=%d\tp75_ns=%d\tp99_ns=%d\tmax_ns=%d\n",
		run.WikiAll.Count(), run.WikiAll.Mean(), run.WikiAll.Median(),
		run.WikiAll.Quantile(0.75), run.WikiAll.Quantile(0.99), run.WikiAll.Max())
	fmt.Fprintf(&b, "static\tn=%d\tmean_ns=%d\tp50_ns=%d\n",
		run.StaticAll.Count(), run.StaticAll.Mean(), run.StaticAll.Median())
	fmt.Fprintf(&b, "refused\t%d\n", run.Refused)
	for i, h := range run.HitRates {
		fmt.Fprintf(&b, "hit_rate\t%d\t%.6f\n", i, h)
	}
	fmt.Fprintf(&b, "bin_width_ns\t%d\n", run.WikiBins.Width())
	for i := 0; i < run.WikiBins.NumBins(); i++ {
		fmt.Fprintf(&b, "bin\t%d\tlaunched=%d\tok=%d\tp50_ns=%d\n",
			i, run.Launched[i], run.WikiBins.Bin(i).Count(), run.WikiBins.Bin(i).Median())
	}
	checkGolden(t, "trace_replay.txt", b.String())
}

// WriteSummary minus the lines that depend on the host (heap, wall
// clock): what is left is the simulation's own outcome.
func TestGoldenHorizonSummary(t *testing.T) {
	res, err := RunHorizon(context.Background(), horizonCfg(20000))
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := res.WriteSummary(&buf); err != nil {
		t.Fatal(err)
	}
	var kept []string
	for _, line := range strings.Split(buf.String(), "\n") {
		key, _, _ := strings.Cut(line, "\t")
		if key == "peak_heap_mb" || key == "wall" || key == "qps" {
			continue
		}
		kept = append(kept, line)
	}
	checkGolden(t, "horizon_summary.txt", strings.Join(kept, "\n"))
}
