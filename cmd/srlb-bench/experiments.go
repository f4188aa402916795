package main

import (
	"context"
	"fmt"
	"io"
	"os"

	"srlb/internal/appserver"
	"srlb/internal/experiments"
	"srlb/internal/plot"
	"srlb/internal/wiki"
)

// env is what the flags resolve to once: the run's settings, and the
// inputs every experiment reads (from here and nowhere else).
type env struct {
	experiment, out        string
	plot                   bool
	cpuProfile, memProfile string

	// base is what every Poisson-family experiment runs on: the cluster,
	// its λ0 (0 until the calibration entry has run), -queries, the
	// replication axis derived from -seed/-seeds, -workers and the -v
	// progress sink.
	base      experiments.Base
	seed      uint64
	seedCount int
	verbose   bool

	rhoPoints int
	compress  float64
	// mixCompress is -compress only when set explicitly: the multi-service
	// mix replays its wiki service faster than the single-service figures
	// (the experiment's own 288× default) unless the flag overrides it.
	mixCompress    float64
	horizonQueries uint64
	horizonRho     float64
	adaptive       experiments.Adaptive
	vipCounts      intList
}

// artifact is one file of -out; without a name it is a chart for stdout,
// rendered only under -plot.
type artifact struct {
	name  string
	write func(io.Writer) error
}

// report is what an experiment hands the driver to act on.
type report struct {
	lines []string // the summary, one stdout line each
	// doc, when set, names the experiment's BENCH_*.json document: stats'
	// cells if a Runner sweep ran, then tables.
	doc    string
	stats  *experiments.SweepStats
	tables []experiments.Table
	files  []artifact // written (or rendered) in order, after the document
}

func (r *report) linef(format string, args ...any) {
	r.lines = append(r.lines, fmt.Sprintf(format, args...))
}

// experiment is one row of the table srlb-bench loops over.
type experiment struct {
	name string
	// also lists further -experiment values selecting this entry: figure
	// aliases, and group names shared by several entries.
	also          []string
	title         string
	titlef        func(*env) string // renders the banner where a fixed title cannot
	needsLambda0  bool              // the calibration runs ahead of the entry, once
	onlyWhenNamed bool              // not part of -experiment all
	run           func(*env) (report, error)
}

// calibration is the SS V-A bootstrap. λ0 is shared across the Poisson
// figures, so the driver runs this entry on demand ahead of the first one
// that needs it. Probe batches stay at the paper's 20000 queries
// regardless of -queries — the drop-onset definition is batch-size
// dependent, and small probes overestimate λ0.
var calibration = experiment{
	name: "calibrate", title: "calibrate (SS V-A bootstrap)", onlyWhenNamed: true,
	run: func(e *env) (rep report, _ error) {
		cal := experiments.CalibrateCached(experiments.CalibrationConfig{Cluster: e.base.Cluster})
		if cal.Err != nil {
			return rep, inputError{fmt.Errorf("%w; the probes are 20000 queries whatever -queries says, so lower -servers", cal.Err)}
		}
		e.base.Lambda0 = cal.Lambda0
		rep.linef("lambda0 = %.1f q/s (theoretical %.1f, %d probes)", cal.Lambda0, cal.Theoretical, len(cal.Probes))
		rep.files = []artifact{{"calibration.tsv", cal.TSV().Render}}
		return rep, nil
	},
}

// entries is every artifact srlb-bench regenerates, in running order.
var entries = []experiment{
	calibration,
	{name: "fig2", title: "figure 2: mean response time vs load", needsLambda0: true,
		run: func(e *env) (rep report, _ error) {
			rhos := make([]float64, e.rhoPoints)
			for i := range rhos {
				rhos[i] = float64(i+1) / float64(e.rhoPoints+1)
			}
			res := experiments.RunFig2(e.fig2Config(rhos, nil))
			if imp, err := res.Improvement("SR 4", 0.88); err == nil {
				rep.linef("SR4 vs RR at rho=0.88: %.2fx (paper: up to 2.3x)", imp)
			}
			if len(e.base.Seeds) > 1 {
				rep.linef("replicated over %d seeds; cells report mean ± 95%% CI", len(e.base.Seeds))
			}
			// The cross-commit tracking artifact keeps its historical name.
			rep.doc, rep.stats = "BENCH_sweep.json", &res.Stats
			// CI-aware: replicated sweeps render mean ± ci95 whiskers.
			rep.files = []artifact{
				seriesPlot("Figure 2: mean response time (s) vs load", res.Stats.PlotSeries()),
				{"fig2_mean_rt_vs_load.tsv", res.TSV().Render},
			}
			return rep, nil
		}},
	cdfFigure("fig3", "figure 3: response-time CDF at rho=0.88", "fig3_cdf_rho088.tsv", experiments.RunFig3),
	{name: "fig4", title: "figure 4: server load mean + fairness timeline", needsLambda0: true,
		run: func(e *env) (rep report, _ error) {
			res := experiments.RunFig4(e.base)
			for _, name := range []string{"RR", "SR 4"} {
				if fair, err := res.MeanFairness(name); err == nil {
					rep.linef("mean fairness %-5s = %.3f", name, fair)
				}
			}
			rep.files = []artifact{{"fig4_load_fairness.tsv", res.TSV().Render}}
			return rep, nil
		}},
	cdfFigure("fig5", "figure 5: response-time CDF at rho=0.61", "fig5_cdf_rho061.tsv", experiments.RunFig5),
	{name: "wiki", also: []string{"fig6", "fig7", "fig8"}, title: "figures 6-8: Wikipedia day replay (RR vs SR4)",
		run: func(e *env) (rep report, _ error) {
			if len(e.base.Seeds) > 1 {
				rep.linef("note: wiki replay is single-seed (-seeds ignored); see examples/wikipedia for a replicated replay")
			}
			res := experiments.RunWiki(experiments.WikiConfig{
				Cluster:  e.base.Cluster,
				Day:      wiki.Config{Seed: e.seed, Compression: e.compress},
				Workers:  e.base.Workers,
				Progress: e.base.Progress,
			})
			for _, s := range res.Summaries() {
				rep.linef("%-5s median=%.3fs q3=%.3fs wiki-pages=%d refused=%d cache-hit=%.2f",
					s.Policy, s.Median.Seconds(), s.Q3.Seconds(), s.WikiPages, s.Refused, s.MeanHit)
			}
			rep.linef("(paper fig 8: median 0.25s->0.20s, Q3 0.48s->0.28s)")
			fig8 := func(w io.Writer) error {
				var series []plot.Series
				for _, run := range res.Runs {
					s := plot.Series{Name: run.Spec.Name}
					for _, pt := range run.WikiAll.CDF(80) {
						if pt.Value.Seconds() > 1.2 {
							break // match the paper's x-range
						}
						s.X = append(s.X, pt.Value.Seconds())
						s.Y = append(s.Y, pt.Fraction)
					}
					series = append(series, s)
				}
				return plot.Render(w, plot.Config{
					Title: "Figure 8: CDF of wiki page load time", XLabel: "rt(s)", YLabel: "cdf",
				}, series...)
			}
			rep.files = []artifact{
				{write: fig8},
				{"fig6_wiki_rate_median.tsv", res.Fig6().Render},
				{"fig7_wiki_deciles.tsv", res.Fig7().Render},
				{"fig8_wiki_cdf.tsv", res.Fig8().Render},
			}
			return rep, nil
		}},
	{name: "ablations", title: "ablations: candidates/threshold/window/scheme/backlog", needsLambda0: true,
		run: func(e *env) (report, error) {
			var file experiments.TSV
			for _, r := range experiments.RunAllAblations(e.base) {
				file.Tables = append(file.Tables, r.TSV().Tables...)
			}
			return report{files: []artifact{{"ablations.tsv", file.Render}}}, nil
		}},
	{name: "retransmit", also: []string{"ablations"},
		title: "ablation: tcp_abort_on_overflow vs SYN retransmission (SS IV-C)",
		run: func(e *env) (rep report, _ error) {
			// Deep overload + small backlog: the backlog caps queueing
			// delay, so the completed-query tail isolates the
			// RST-vs-retransmit difference. The shallow cluster
			// calibrates its own λ0.
			shallow := e.base
			shallow.Lambda0 = 0
			shallow.Cluster.Server = appserver.Default()
			shallow.Cluster.Server.Backlog = 16
			res := experiments.RunRetransmitAblation(shallow)
			for _, row := range res.Rows {
				rep.linef("%-30s p99=%.3fs refused=%d timeouts=%d retransmits=%d",
					row.Variant, row.P99.Seconds(), row.RefusedCount(), row.TimedOut, row.Retransmits)
			}
			rep.files = []artifact{{"ablation_abort_on_overflow.tsv", res.TSV().Render}}
			return rep, nil
		}},
	{name: "hetero", also: []string{"ablations"}, title: "extension: heterogeneous cluster",
		run: func(e *env) (rep report, _ error) {
			res := experiments.RunHetero(e.base)
			for _, row := range res.Rows {
				rep.linef("%-7s mean=%.3fs slow-share=%.3f (capacity share %.3f)",
					row.Policy, row.Mean.Seconds(), row.SlowShare, res.CapacityShare)
			}
			rep.files = []artifact{{"extension_heterogeneous.tsv", res.TSV().Render}}
			return rep, nil
		}},
	{name: "bursty", title: "bursty sweep: fig2 grid under on/off MMPP arrivals", needsLambda0: true,
		run: func(e *env) (rep report, _ error) {
			res := experiments.RunFig2(e.fig2Config(burstyRhos(e.rhoPoints),
				experiments.OneService(experiments.BurstyService{Lambda0: e.base.Lambda0, Queries: e.base.Queries})))
			if imp, err := res.Improvement("SR 4", 0.88); err == nil {
				rep.linef("SR4 vs RR at rho=0.88 under bursts: %.2fx", imp)
			}
			rep.linef("rows use the fig2 format (rho + per-policy mean[, ci95]) — diff the TSVs column for column")
			rep.files = []artifact{
				seriesPlot("Bursty sweep: mean response time (s) vs load", res.Stats.PlotSeries()),
				{"bursty_mean_rt_vs_load.tsv", res.TSV().Render},
			}
			return rep, nil
		}},
	{name: "failover", title: "extension: LB-replica failover transient (maglev fallback vs random)", needsLambda0: true,
		run: func(e *env) (rep report, _ error) {
			res := experiments.RunFailover(e.base)
			for _, m := range res.Modes {
				rep.linef("%-16s ok=%.4f±%.4f refused=%.0f unfinished=%.0f (n=%d)",
					m.Variant, m.OKFrac, m.OKFracCI95, m.Refused, m.Unfinished, m.N)
			}
			rep.linef("replica 0 of %d killed at t=%.1fs", res.Replicas, res.KillAt.Seconds())
			rep.files = []artifact{{"extension_lb_failover.tsv", res.TSV().Render}}
			return rep, nil
		}},
	{name: "resilience", title: "extension: warm-handoff resilience ablation (stateless/chash/warm)", needsLambda0: true,
		run: func(e *env) (rep report, _ error) {
			res := experiments.RunResilience(e.base)
			for _, mode := range []string{"warm", "chash", "stateless"} {
				if row, err := res.Row("kill", mode); err == nil {
					rep.linef("kill/%-10s ok=%.4f±%.4f refused=%.0f unfinished=%.0f (n=%d)",
						mode, row.OKFrac, row.OKFracCI95, row.Refused, row.Unfinished, row.N)
				}
			}
			rep.linef("replica kill at %.0f%% of span, recover at %.0f%%; rack loses %.0f%% of servers",
				100*res.KillFrac, 100*res.RecoverFrac, 100*res.RackFrac)
			file := res.TSV()
			rep.doc, rep.stats, rep.tables = "BENCH_resilience.json", &res.Stats, file.Tables
			rep.files = []artifact{{"extension_resilience.tsv", file.Render}}
			return rep, nil
		}},
	{name: "multiservice", title: "extension: concurrent multi-service mix (web+wiki+batch)", needsLambda0: true,
		run: func(e *env) (rep report, _ error) {
			res := experiments.RunMultiService(experiments.MultiServiceConfig{Base: e.base, Compression: e.mixCompress})
			for _, svc := range res.Services {
				if imp, err := res.Improvement("SR 4", svc, 0.85); err == nil {
					rep.linef("SR4 vs RR mean RT, %-5s service at rho=0.85: %.2fx", svc, imp)
				}
			}
			rep.doc, rep.stats = "BENCH_multiservice.json", &res.Stats
			facets := make([]plot.Facet, 0, len(res.Services))
			for _, svc := range res.Services {
				facets = append(facets, plot.Facet{
					Title:  fmt.Sprintf("Multi-service: %s mean response time (s) vs load", svc),
					Series: res.PlotSeries(svc),
				})
			}
			rep.files = []artifact{
				facetPlot("rho", "rt(s)", facets),
				{"extension_multiservice.tsv", res.TSV().Render},
			}
			return rep, nil
		}},
	{name: "interference", title: "extension: cross-service interference on one shared pool (web vs batch surge)", needsLambda0: true,
		run: func(e *env) (rep report, _ error) {
			res := experiments.RunInterference(e.base)
			heavy := res.BatchRhos[len(res.BatchRhos)-1]
			for _, name := range []string{"RR", "SR 4", "SR dyn"} {
				deg, err := res.VictimDegradation(name)
				row, rowErr := res.Row(name, "web", heavy)
				if err == nil && rowErr == nil {
					rep.linef("web p99 under %-7s at batch rho=%.2f: %.3fs (%.2fx its light-batch baseline)",
						name, heavy, row.P99.Seconds(), deg)
				}
			}
			rep.doc, rep.stats = "BENCH_interference.json", &res.Stats
			rep.files = []artifact{
				facetPlot("batch rho", "p99(s)", res.PlotFacets()),
				{"extension_interference.tsv", res.TSV().Render},
			}
			return rep, nil
		}},
	{name: "policies", title: "extension: load-feedback policy ablation (random2/chash2/wleastload/flowlet)", needsLambda0: true,
		run: func(e *env) (rep report, _ error) {
			res := experiments.RunPolicies(e.base)
			heavy := res.BatchRhos[len(res.BatchRhos)-1]
			for _, name := range []string{"random2", "chash2", "wleastload", "flowlet"} {
				if row, err := res.Row("steady", name, "web", heavy); err == nil {
					rep.linef("web p99 under %-10s at batch rho=%.2f: %.3fs ok=%.4f",
						name, heavy, row.P99.Seconds(), row.OKFrac)
				}
			}
			for _, variant := range res.Variants {
				rep.linef("flowlet re-steers (%s): %.0f established flows moved mid-connection",
					variant, res.TotalResteers(variant, "flowlet"))
			}
			file := res.TSV()
			rep.doc, rep.stats, rep.tables = "BENCH_policies.json", &res.Stats, file.Tables
			rep.files = []artifact{
				facetPlot("batch rho", "p99(s)", res.PlotFacets()),
				{"extension_policies.tsv", file.Render},
			}
			return rep, nil
		}},
	{name: "rhogrid", title: "extension: rho-grid policy ablation (web-rho × batch-rho matrix, adaptive replication)", needsLambda0: true,
		run: func(e *env) (rep report, _ error) {
			res := experiments.RunRhoGrid(experiments.RhoGridConfig{Base: e.base, Adaptive: e.adaptive})
			rep.linef("grid: %d web-rho × %d batch-rho points, %d policies",
				len(res.WebRhos), len(res.BatchRhos), len(res.Stats.Policies))
			if res.Adaptive {
				rep.linef("adaptive budget: %d/%d replicates spent (%.0f%% of fixed; ci-target %.2f, max-seeds %d)",
					res.TotalReplicates(), res.FixedBudget(),
					100*float64(res.TotalReplicates())/float64(res.FixedBudget()),
					e.adaptive.CITarget, res.MaxSeeds)
			}
			rep.doc, rep.stats = "BENCH_rhogrid.json", &res.Stats
			p99 := func(w io.Writer) error { return plot.RenderHeatmaps(w, res.Heatmaps("p99")...) }
			rep.files = []artifact{
				{"rhogrid_heatmaps.txt", func(w io.Writer) error {
					if err := p99(w); err != nil {
						return err
					}
					if _, err := fmt.Fprintln(w); err != nil {
						return err
					}
					return plot.RenderHeatmaps(w, res.Heatmaps("n")...)
				}},
				{write: p99},
				{"extension_rhogrid.tsv", res.TSV().Render},
			}
			return rep, nil
		}},
	{name: "vipscale", title: "extension: VIP-scale dispatch cost (100 -> 10k services)",
		run: func(e *env) (rep report, _ error) {
			res := experiments.RunVIPScale(experiments.VIPScaleConfig{VIPCounts: e.vipCounts, Seed: e.seed, Progress: e.base.Progress})
			for _, row := range res.Rows {
				rep.linef("%-12s vips=%-6d build=%7.1fms syn=%6.0f ns/pkt steer=%6.0f ns/pkt",
					row.Scheme, row.VIPs, row.BuildMS, row.SYNNs, row.SteerNs)
			}
			rep.linef("flatness (largest/smallest dispatch cost across schemes): %.2fx — O(1) stays near 1, O(n) tracks the count ratio",
				res.FlatnessRatio())
			file := res.TSV()
			rep.doc, rep.tables = "BENCH_vipscale.json", file.Tables
			rep.files = []artifact{
				facetPlot("#services", "ns/pkt", res.Plot()),
				{"vipscale_dispatch.tsv", file.Render},
			}
			return rep, nil
		}},
	{name: "churn", title: "extension: pool churn/autoscale under load", needsLambda0: true,
		run: func(e *env) (rep report, _ error) {
			res := experiments.RunChurn(e.base)
			for _, name := range []string{"RR", "SR 4", "SR dyn"} {
				if pen, err := res.ChurnPenalty(name, 0.95); err == nil {
					rep.linef("churn penalty %-7s at rho=0.95: %.2fx", name, pen)
				}
			}
			rep.files = []artifact{{"extension_churn.tsv", res.TSV().Render}}
			return rep, nil
		}},
	// The horizon soak runs only when named: 10⁸ queries take minutes of
	// host time, far outside the "all" budget.
	{name: "horizon", needsLambda0: true, onlyWhenNamed: true,
		titlef: func(e *env) string {
			return fmt.Sprintf("horizon: %.0e-query constant-memory soak", float64(e.horizonQueries))
		},
		run: func(e *env) (rep report, _ error) {
			lastPct := -1
			res, err := experiments.RunHorizon(context.Background(), experiments.HorizonConfig{
				Cluster: e.base.Cluster, Lambda0: e.base.Lambda0,
				Queries: e.horizonQueries, Rho: e.horizonRho,
				Progress: func(done, total uint64) {
					if !e.verbose {
						return
					}
					if pct := int(100 * done / total); pct != lastPct {
						lastPct = pct
						fmt.Fprintf(os.Stderr, "  %3d%% (%d/%d queries)\n", pct, done, total)
					}
				},
			})
			if err != nil {
				return rep, err
			}
			rep.linef("%d queries, peak heap %.1f MB, %.0f q/s host throughput",
				res.Queries, float64(res.PeakHeap)/(1<<20), res.QPS())
			rep.linef("mean=%.3fms p50=%.3fms p99=%.3fms ok=%d refused=%d unfinished=%d",
				res.RT.Mean().Seconds()*1e3, res.RT.Median().Seconds()*1e3, res.RT.Quantile(0.99).Seconds()*1e3,
				res.Counters.OK, res.Counters.Refused, res.Counters.Unfinished)
			rep.files = []artifact{{"horizon.tsv", func(w io.Writer) error {
				_, err := io.WriteString(w, res.Summary())
				return err
			}}}
			return rep, nil
		}},
}

// fig2Config is the load sweep of figure 2 and its bursty twin. Fig2Config
// spells the base's fields out (bench/ builds it as a keyed literal).
func (e *env) fig2Config(rhos []float64, workload experiments.Workload) experiments.Fig2Config {
	return experiments.Fig2Config{
		Cluster: e.base.Cluster, Lambda0: e.base.Lambda0, Queries: e.base.Queries, Rhos: rhos,
		Seeds: e.base.Seeds, Workers: e.base.Workers, Progress: e.base.Progress, Workload: workload,
	}
}

// cdfFigure is the entry of figures 3 and 5: one CDF experiment, each
// runner fixing its own rho.
func cdfFigure(name, title, file string, run func(experiments.Base) experiments.CDFResult) experiment {
	return experiment{name: name, title: title, needsLambda0: true, run: func(e *env) (report, error) {
		res := run(e.base)
		return report{files: []artifact{{file, res.TSV().Render}}}, nil
	}}
}

// seriesPlot and facetPlot are the -plot charts of a load sweep.
func seriesPlot(title string, series []plot.Series) artifact {
	return artifact{write: func(w io.Writer) error {
		return plot.Render(w, plot.Config{Title: title, XLabel: "rho", YLabel: "rt(s)"}, series...)
	}}
}

func facetPlot(xlabel, ylabel string, facets []plot.Facet) artifact {
	return artifact{write: func(w io.Writer) error {
		return plot.RenderFacets(w, plot.Config{XLabel: xlabel, YLabel: ylabel}, facets...)
	}}
}

// burstyRhos returns the bursty sweep's load grid: fewer points than
// fig2 (bursty cells are costlier at equal mean rate), anchored so 0.88
// is present for the headline comparison.
func burstyRhos(points int) []float64 {
	if points > 8 {
		points = 8
	}
	if points < 2 {
		points = 2
	}
	out := make([]float64, points)
	for i := range out {
		out[i] = 0.2 + (0.88-0.2)*float64(i)/float64(points-1)
	}
	return out
}
