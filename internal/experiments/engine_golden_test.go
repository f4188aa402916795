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

func TestGoldenFig2(t *testing.T) {
	res := RunFig2(Fig2Config{
		Cluster:  smallCluster(4),
		Lambda0:  80,
		Rhos:     []float64{0.3, 0.88},
		Policies: []PolicySpec{RR(), SRc(4), SRdyn()},
		Queries:  1500,
		Seeds:    DeriveSeeds(4, 2),
	})
	goldenTSV(t, "fig2.tsv", res.WriteTSV)
}

func TestGoldenBursty(t *testing.T) {
	res := RunFig2(Fig2Config{
		Cluster:  smallCluster(4),
		Lambda0:  80,
		Rhos:     []float64{0.3, 0.88},
		Policies: []PolicySpec{RR(), SRc(4)},
		Seeds:    DeriveSeeds(4, 2),
		Workload: BurstyWorkload{Lambda0: 80, Queries: 1500, PeakFactor: 4, MeanOn: time.Second, MeanOff: 5 * time.Second},
	})
	goldenTSV(t, "bursty.tsv", res.WriteTSV)
}

func TestGoldenFig4(t *testing.T) {
	res := RunFig4(Fig4Config{
		Cluster: smallCluster(7),
		Lambda0: 80,
		Queries: 2000,
	})
	goldenTSV(t, "fig4.tsv", res.WriteTSV)
}

func TestGoldenFailover(t *testing.T) {
	res := RunFailover(FailoverConfig{
		Cluster:     smallCluster(31),
		Lambda0:     80,
		Queries:     2000,
		RecoverFrac: 0.75,
		Bins:        10,
		Seeds:       DeriveSeeds(31, 2),
	})
	goldenTSV(t, "failover.tsv", res.WriteTSV)
}

// The RTO path: silent-drop servers plus client SYN retransmission, the
// one consumer that stretches the horizon guard.
func TestGoldenRetransmit(t *testing.T) {
	res := RunRetransmitAblation(RetransmitConfig{
		Cluster: ClusterConfig{Seed: 21, Servers: 4, Server: serverWithBacklog(8)},
		Rho:     2.0,
		Lambda0: 80,
		Queries: 1500,
		RTO:     time.Second,
	})
	goldenTSV(t, "retransmit.tsv", res.WriteTSV)
}

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
	run := cell.Outcome.Extra.(WikiRun)

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
