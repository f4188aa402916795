// Command srlb-bench regenerates every evaluation artifact of the SRLB
// paper (figures 2–8), the §V-A λ0 calibration, the ablation studies,
// and the topology extensions (bursty arrivals, LB-replica failover,
// pool churn, the concurrent multi-service mix), writing one TSV per
// artifact plus a human-readable summary to stdout.
//
// Usage:
//
//	srlb-bench -experiment all -out results/
//	srlb-bench -experiment fig2 -queries 20000 -seeds 5
//	srlb-bench -experiment wiki -compress 24     # 24h replayed as 1 sim-hour
//	srlb-bench -experiment failover -seeds 5     # kill an LB replica mid-run
//	srlb-bench -experiment churn                 # drain+re-add servers under load
//	srlb-bench -experiment bursty                # fig2 grid under on/off MMPP arrivals
//	srlb-bench -experiment multiservice -seeds 5 # web+wiki+batch VIPs sharing the LB
//	srlb-bench -experiment interference -seeds 5 # web+batch contending on ONE shared pool
//	srlb-bench -experiment policies -seeds 5     # load-feedback scheme ablation (random2/chash2/wleastload/flowlet)
//	srlb-bench -experiment vipscale              # dispatch ns/pkt as services sweep 100 -> 10k
//
// With -seeds N > 1 every Poisson-family experiment (calibrate, figures
// 2–5, ablations, hetero, bursty, failover, churn, multiservice,
// interference, policies) replicates its cells across N derived seeds and
// reports mean ± 95% CI; BENCH_sweep.json (see
// docs/RESULTS_SCHEMA.md) carries the per-cell aggregates — for multi-VIP
// cells, with one per-VIP row per service inside each cell, each carrying
// that service's own resolved load. The wiki replay (figures 6–8) stays
// single-seed — replicate it through the Sweep API as in
// examples/wikipedia.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"strconv"
	"strings"
	"time"

	"srlb"
	"srlb/internal/appserver"
	"srlb/internal/plot"
)

// distJSON serializes a srlb.Dist: the across-seed mean of a per-seed
// statistic with its Student-t 95% half-width (see docs/RESULTS_SCHEMA.md).
type distJSON struct {
	Mean float64 `json:"mean"`
	CI95 float64 `json:"ci95"`
	Min  float64 `json:"min"`
	Max  float64 `json:"max"`
}

// ReportedCI95 maps the "unknown interval" sentinel (+Inf at n < 2) to
// 0 — json.Marshal rejects non-finite values, and the schema's
// convention is that a zero ci95 reads "unknown".
func distMS(d srlb.Dist) distJSON {
	return distJSON{Mean: d.Mean * 1e3, CI95: d.ReportedCI95() * 1e3, Min: d.Min * 1e3, Max: d.Max * 1e3}
}

func dist(d srlb.Dist) distJSON {
	return distJSON{Mean: d.Mean, CI95: d.ReportedCI95(), Min: d.Min, Max: d.Max}
}

// outcomeJSON is the replicated-metric block a cell and each of its
// per-VIP rows carry alike; embedded, its fields serialize in place.
type outcomeJSON struct {
	MeanMS     distJSON `json:"mean_ms"`
	P50MS      distJSON `json:"p50_ms"`
	P95MS      distJSON `json:"p95_ms"`
	P99MS      distJSON `json:"p99_ms"`
	OKFraction distJSON `json:"ok_fraction"`
	Refused    distJSON `json:"refused"`
}

func outcome(o srlb.OutcomeStats) outcomeJSON {
	return outcomeJSON{
		MeanMS:     distMS(o.Mean.Dist),
		P50MS:      distMS(o.Median.Dist),
		P95MS:      distMS(o.P95.Dist),
		P99MS:      distMS(o.P99.Dist),
		OKFraction: dist(o.OKFraction.Dist),
		Refused:    dist(o.Refused.Dist),
	}
}

// sweepCellJSON is one row of BENCH_sweep.json: a logical (policy, load)
// cell aggregated across the replication axis, with summed host
// wall-clock, so successive PRs can track both the simulated results and
// the harness's own speed.
type sweepCellJSON struct {
	Policy   string  `json:"policy"`
	Workload string  `json:"workload"`
	Variant  string  `json:"variant,omitempty"`
	Load     float64 `json:"load"`
	// LoadVec is the per-service load vector of a grid-sweep cell
	// (schema v9); absent for scalar sweeps.
	LoadVec []float64 `json:"load_vec,omitempty"`
	// StopReason is the adaptive replication controller's per-cell
	// verdict (schema v9: "converged" or "max-seeds"); absent under
	// fixed replication. N and Seeds then vary per cell.
	StopReason string   `json:"stop_reason,omitempty"`
	N          int      `json:"n"`
	Seeds      []uint64 `json:"seeds"`
	outcomeJSON
	// VIPs is the per-service breakdown of a multi-VIP cell (schema v4+);
	// absent for single-VIP sweeps.
	VIPs   []vipCellJSON `json:"vips,omitempty"`
	WallMS float64       `json:"wall_ms"`
}

// vipCellJSON is one service's share of a multi-VIP cell.
type vipCellJSON struct {
	Name     string `json:"name"`
	Workload string `json:"workload"`
	// Load is the service's own resolved load point (schema v5): it
	// differs from the cell's load when the workload carries per-service
	// load axes (a pinned victim against a swept aggressor).
	Load    float64  `json:"load"`
	Offered distJSON `json:"offered"`
	outcomeJSON
	Unfinished distJSON `json:"unfinished"`
}

// vipScaleRowJSON is one (scheme, VIP-count) dispatch measurement of the
// vipscale experiment (schema v6): wall-clock per-packet costs of the
// SYN and steered paths plus the control-plane build time. It is
// srlb.VIPScaleRow with JSON names, field for field.
type vipScaleRowJSON struct {
	Scheme  string  `json:"scheme"`
	VIPs    int     `json:"vips"`
	Pools   int     `json:"pools"`
	BuildMS float64 `json:"build_ms"`
	SYNNs   float64 `json:"syn_ns"`
	SteerNs float64 `json:"steer_ns"`
	Ops     int     `json:"ops"`
}

// policiesRowJSON is one (variant, batch-load, policy, service) row of
// the policies experiment (schema v7): the victim-view aggregates plus
// the flowlet mechanism counter.
type policiesRowJSON struct {
	Variant  string  `json:"variant"`
	BatchRho float64 `json:"batch_rho"`
	Policy   string  `json:"policy"`
	Service  string  `json:"service"`
	Load     float64 `json:"load"`
	N        int     `json:"n"`
	Offered  float64 `json:"offered"`
	MeanMS   float64 `json:"mean_ms"`
	P99MS    float64 `json:"p99_ms"`
	OKFrac   float64 `json:"ok_fraction"`
	// Resteers is the across-seed mean count of mid-connection flowlet
	// re-steers (whole cluster; set on the "all" rows).
	Resteers float64 `json:"resteers"`
}

// resilienceRowJSON is one (scenario, mode) cell of the resilience
// ablation (schema v8): completion rate with CI, response-time
// aggregates, and the refused/unfinished accounting.
type resilienceRowJSON struct {
	Scenario   string  `json:"scenario"`
	Mode       string  `json:"mode"`
	N          int     `json:"n"`
	OKFrac     float64 `json:"ok_fraction"`
	OKFracCI95 float64 `json:"ok_fraction_ci95"`
	MeanMS     float64 `json:"mean_ms"`
	MeanCI95MS float64 `json:"mean_ci95_ms"`
	P99MS      float64 `json:"p99_ms"`
	Refused    float64 `json:"refused"`
	Unfinished float64 `json:"unfinished"`
}

type sweepJSON struct {
	SchemaVersion int             `json:"schema_version"`
	Lambda0       float64         `json:"lambda0_qps,omitempty"`
	Workers       int             `json:"workers"`
	GOMAXPROCS    int             `json:"gomaxprocs"`
	Seeds         []uint64        `json:"seeds,omitempty"`
	TotalWallMS   float64         `json:"total_wall_ms"`
	Cells         []sweepCellJSON `json:"cells,omitempty"`
	// VIPScale carries the vipscale experiment's dispatch-cost rows
	// (schema v6); absent for simulation sweeps.
	VIPScale []vipScaleRowJSON `json:"vipscale,omitempty"`
	// Policies carries the policy-ablation rows (schema v7); absent for
	// the other sweeps.
	Policies []policiesRowJSON `json:"policies,omitempty"`
	// Resilience carries the warm-handoff resilience rows (schema v8);
	// absent for the other sweeps.
	Resilience []resilienceRowJSON `json:"resilience,omitempty"`
}

// sweepSchemaVersion is BENCH_sweep.json's current schema (v9: grid
// rows — per-cell load_vec, stop_reason and ragged n/seeds from
// adaptive replication; see docs/RESULTS_SCHEMA.md).
const sweepSchemaVersion = 9

// appserverDefaultWithBacklog returns the paper's server config with a
// shallower accept queue.
func appserverDefaultWithBacklog(backlog int) appserver.Config {
	cfg := appserver.Default()
	cfg.Backlog = backlog
	return cfg
}

func main() {
	var (
		experiment = flag.String("experiment", "all", "calibrate|fig2|fig3|fig4|fig5|wiki|ablations|bursty|failover|resilience|churn|multiservice|interference|policies|rhogrid|vipscale|horizon|all (wiki covers figures 6-8; horizon runs only when named)")
		out        = flag.String("out", "results", "output directory for TSV artifacts")
		seed       = flag.Uint64("seed", 1, "master RNG seed")
		seedCount  = flag.Int("seeds", 1, "replicates per cell (derived from -seed; >1 reports mean ± 95% CI)")
		queries    = flag.Int("queries", 20000, "queries per Poisson experiment point (paper: 20000)")
		servers    = flag.Int("servers", 12, "application servers (paper: 12)")
		compress   = flag.Float64("compress", 24, "wiki replay time compression (1 = full 24h)")
		rhoPoints  = flag.Int("rho-points", 24, "number of load points for fig2 (paper: 24)")
		horizonQ   = flag.Uint64("horizon-queries", 100_000_000, "queries for -experiment horizon (constant-memory soak)")
		horizonRho = flag.Float64("horizon-rho", 0.85, "normalized load for -experiment horizon")
		workers    = flag.Int("workers", 0, "parallel sweep cells (0 = GOMAXPROCS)")
		ciTarget   = flag.Float64("ci-target", 0.2, "rhogrid: adaptive relative CI95 stop target (<= 0 runs fixed -seeds replication)")
		maxSeeds   = flag.Int("max-seeds", 8, "rhogrid: adaptive per-cell replicate cap")
		verbose    = flag.Bool("v", false, "log per-point progress")
		asciiPlot  = flag.Bool("plot", false, "render ASCII charts of figures 2 and 8 to stdout")
	)
	vipCounts := &intList{100, 1000, 10000}
	flag.Var(vipCounts, "vip-counts", "comma-separated service counts for -experiment vipscale")
	flag.Usage = func() {
		fmt.Fprintf(flag.CommandLine.Output(), "Usage of %s:\n", os.Args[0])
		flag.PrintDefaults()
		fmt.Fprintln(flag.CommandLine.Output(), `
Artifacts land in -out as TSV, plus BENCH_sweep.json — the per-cell
machine-readable summary of the fig2/multiservice/interference/policies/
resilience sweeps (schema v9: n, mean, ci95, p50, p99 per cell, the
topology-variant label, per-VIP rows — each with its service's own
resolved load — for multi-service cells, vipscale dispatch-cost rows,
policies rows with flowlet re-steer counts, resilience rows with
per-(scenario, mode) completion rates, and rhogrid cells with load_vec,
per-cell n and stop_reason from adaptive replication; documented
field-by-field in docs/RESULTS_SCHEMA.md). The topology experiments
(failover, resilience, churn, multiservice, interference, policies,
rhogrid, vipscale) and the bursty sweep are described in
docs/TOPOLOGY.md.`)
	}
	flag.Parse()
	// The replication axis, shared by every Poisson-family experiment
	// below (the wiki replay has no Seeds knob). One seed means "the
	// master seed itself" (no CI); more derive well-separated streams
	// from it.
	seeds := []uint64{*seed}
	if *seedCount > 1 {
		seeds = srlb.DeriveSeeds(*seed, *seedCount)
	}

	if err := os.MkdirAll(*out, 0o755); err != nil {
		fmt.Fprintf(os.Stderr, "srlb-bench: %v\n", err)
		os.Exit(1)
	}
	progress := func(string) {}
	if *verbose {
		progress = func(s string) { fmt.Fprintln(os.Stderr, "  "+s) }
	}
	cluster := srlb.Cluster{Seed: *seed, Servers: *servers}

	run := func(name string, fn func() error) {
		start := time.Now()
		fmt.Printf("== %s ==\n", name)
		if err := fn(); err != nil {
			fmt.Fprintf(os.Stderr, "srlb-bench: %s: %v\n", name, err)
			os.Exit(1)
		}
		fmt.Printf("   done in %v\n", time.Since(start).Round(time.Millisecond))
	}

	writeFile := func(name string, emit func(f *os.File) error) error {
		path := filepath.Join(*out, name)
		f, err := os.Create(path)
		if err != nil {
			return err
		}
		defer f.Close()
		if err := emit(f); err != nil {
			return err
		}
		fmt.Printf("   wrote %s\n", path)
		return f.Sync()
	}

	// λ0 is shared across the Poisson figures: calibrate once. Probe
	// batches stay at the paper's 20000 queries regardless of -queries —
	// the drop-onset definition (§V-A) is batch-size dependent, and small
	// probes overestimate λ0.
	var lambda0 float64
	calibrate := func() error {
		cal := srlb.CalibrateCached(srlb.Calibration{Cluster: cluster})
		lambda0 = cal.Lambda0
		fmt.Printf("   lambda0 = %.1f q/s (theoretical %.1f, %d probes)\n",
			cal.Lambda0, cal.Theoretical, len(cal.Probes))
		return writeFile("calibration.tsv", func(f *os.File) error { return cal.WriteTSV(f) })
	}
	needLambda0 := func() {
		if lambda0 == 0 {
			run("calibrate (SS V-A bootstrap)", calibrate)
		}
	}

	want := func(name string) bool { return *experiment == "all" || *experiment == name }

	// sweepJSONName names an extension experiment's JSON artifact. A
	// standalone run owns BENCH_sweep.json; under -experiment all the
	// figure-2 sweep owns that name (it is the cross-commit tracking
	// artifact), so the extension's rows go to the sibling file instead
	// of clobbering it.
	sweepJSONName := func(sibling string) string {
		if *experiment == "all" {
			return sibling
		}
		return "BENCH_sweep.json"
	}
	// wroteJSON announces an extension's JSON artifact and its schema.
	wroteJSON := func(name, rows string) {
		fmt.Printf("   wrote %s (schema v%d: %s)\n", filepath.Join(*out, name), sweepSchemaVersion, rows)
	}

	if want("calibrate") && *experiment != "all" {
		run("calibrate (SS V-A bootstrap)", calibrate)
	}

	if want("fig2") {
		needLambda0()
		run("figure 2: mean response time vs load", func() error {
			rhos := make([]float64, *rhoPoints)
			for i := range rhos {
				rhos[i] = float64(i+1) / float64(*rhoPoints+1)
			}
			start := time.Now()
			res := srlb.RunFig2(srlb.Fig2Config{
				Cluster: cluster, Lambda0: lambda0, Queries: *queries,
				Rhos: rhos, Seeds: seeds, Workers: *workers, Progress: progress,
			})
			sweepWall := time.Since(start)
			if imp, err := res.Improvement("SR 4", 0.88); err == nil {
				fmt.Printf("   SR4 vs RR at rho=0.88: %.2fx (paper: up to 2.3x)\n", imp)
			}
			if len(seeds) > 1 {
				fmt.Printf("   replicated over %d seeds; cells report mean ± 95%% CI\n", len(seeds))
			}
			if err := writeSweepDoc(*out, "BENCH_sweep.json", lambda0, *workers, sweepWall, res.Stats, nil, nil); err != nil {
				return err
			}
			fmt.Printf("   wrote %s\n", filepath.Join(*out, "BENCH_sweep.json"))
			if *asciiPlot {
				// CI-aware: replicated sweeps render mean ± ci95 whiskers.
				if err := plot.Render(os.Stdout, plot.Config{
					Title: "Figure 2: mean response time (s) vs load", XLabel: "rho", YLabel: "rt(s)",
				}, res.Stats.PlotSeries()...); err != nil {
					return err
				}
			}
			return writeFile("fig2_mean_rt_vs_load.tsv", func(f *os.File) error { return res.WriteTSV(f) })
		})
	}

	if want("fig3") {
		needLambda0()
		run("figure 3: response-time CDF at rho=0.88", func() error {
			res := srlb.RunFig3(srlb.CDFConfig{
				Cluster: cluster, Lambda0: lambda0, Queries: *queries,
				Seeds: seeds, Workers: *workers, Progress: progress,
			})
			return writeFile("fig3_cdf_rho088.tsv", func(f *os.File) error { return res.WriteTSV(f) })
		})
	}

	if want("fig4") {
		needLambda0()
		run("figure 4: server load mean + fairness timeline", func() error {
			res := srlb.RunFig4(srlb.Fig4Config{
				Cluster: cluster, Lambda0: lambda0, Queries: *queries,
				Seeds: seeds, Workers: *workers, Progress: progress,
			})
			for _, name := range []string{"RR", "SR 4"} {
				if fair, err := res.MeanFairness(name); err == nil {
					fmt.Printf("   mean fairness %-5s = %.3f\n", name, fair)
				}
			}
			return writeFile("fig4_load_fairness.tsv", func(f *os.File) error { return res.WriteTSV(f) })
		})
	}

	if want("fig5") {
		needLambda0()
		run("figure 5: response-time CDF at rho=0.61", func() error {
			res := srlb.RunFig5(srlb.CDFConfig{
				Cluster: cluster, Lambda0: lambda0, Queries: *queries,
				Seeds: seeds, Workers: *workers, Progress: progress,
			})
			return writeFile("fig5_cdf_rho061.tsv", func(f *os.File) error { return res.WriteTSV(f) })
		})
	}

	if want("wiki") || want("fig6") || want("fig7") || want("fig8") {
		run("figures 6-8: Wikipedia day replay (RR vs SR4)", func() error {
			if len(seeds) > 1 {
				fmt.Println("   note: wiki replay is single-seed (-seeds ignored); see examples/wikipedia for a replicated replay")
			}
			res := srlb.RunWiki(srlb.WikiConfig{
				Cluster:  cluster,
				Day:      srlb.WikiDay{Seed: *seed, Compression: *compress},
				Workers:  *workers,
				Progress: progress,
			})
			for _, s := range res.Summaries() {
				fmt.Printf("   %-5s median=%.3fs q3=%.3fs wiki-pages=%d refused=%d cache-hit=%.2f\n",
					s.Policy, s.Median.Seconds(), s.Q3.Seconds(), s.WikiPages, s.Refused, s.MeanHit)
			}
			fmt.Println("   (paper fig 8: median 0.25s->0.20s, Q3 0.48s->0.28s)")
			if *asciiPlot {
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
				if err := plot.Render(os.Stdout, plot.Config{
					Title: "Figure 8: CDF of wiki page load time", XLabel: "rt(s)", YLabel: "cdf",
				}, series...); err != nil {
					return err
				}
			}
			if err := writeFile("fig6_wiki_rate_median.tsv", func(f *os.File) error { return res.WriteFig6TSV(f) }); err != nil {
				return err
			}
			if err := writeFile("fig7_wiki_deciles.tsv", func(f *os.File) error { return res.WriteFig7TSV(f) }); err != nil {
				return err
			}
			return writeFile("fig8_wiki_cdf.tsv", func(f *os.File) error { return res.WriteFig8TSV(f) })
		})
	}

	if want("ablations") {
		needLambda0()
		run("ablations: candidates/threshold/window/scheme/backlog", func() error {
			results := srlb.RunAllAblations(srlb.AblationConfig{
				Cluster: cluster, Lambda0: lambda0, Queries: *queries,
				Seeds: seeds, Workers: *workers, Progress: progress,
			})
			return writeFile("ablations.tsv", func(f *os.File) error {
				for _, r := range results {
					if err := r.WriteTSV(f); err != nil {
						return err
					}
					fmt.Fprintln(f)
				}
				return nil
			})
		})
		run("ablation: tcp_abort_on_overflow vs SYN retransmission (SS IV-C)", func() error {
			// Deep overload + small backlog: the backlog caps queueing
			// delay, so the completed-query tail isolates the
			// RST-vs-retransmit difference.
			shallow := cluster
			shallow.Server = appserverDefaultWithBacklog(16)
			res := srlb.RunRetransmitAblation(srlb.RetransmitConfig{
				Cluster: shallow, Rho: 2.0, Queries: *queries, Seeds: seeds, Progress: progress,
			})
			for _, row := range res.Rows {
				fmt.Printf("   %-30s p99=%.3fs refused=%d timeouts=%d retransmits=%d\n",
					row.Mode, row.P99.Seconds(), row.Refused, row.TimedOut, row.Retransmits)
			}
			return writeFile("ablation_abort_on_overflow.tsv", func(f *os.File) error { return res.WriteTSV(f) })
		})
		run("extension: heterogeneous cluster", func() error {
			res := srlb.RunHetero(srlb.HeteroConfig{
				Cluster: cluster, Queries: *queries,
				Seeds: seeds, Workers: *workers, Progress: progress,
			})
			for _, row := range res.Rows {
				fmt.Printf("   %-7s mean=%.3fs slow-share=%.3f (capacity share %.3f)\n",
					row.Policy, row.Mean.Seconds(), row.SlowShare, res.CapacityShare)
			}
			return writeFile("extension_heterogeneous.tsv", func(f *os.File) error { return res.WriteTSV(f) })
		})
	}

	if want("bursty") {
		needLambda0()
		run("bursty sweep: fig2 grid under on/off MMPP arrivals", func() error {
			res := srlb.RunFig2(srlb.Fig2Config{
				Cluster: cluster, Lambda0: lambda0,
				Rhos: burstyRhos(*rhoPoints), Seeds: seeds,
				Workers: *workers, Progress: progress,
				Workload: srlb.BurstyWorkload{Lambda0: lambda0, Queries: *queries},
			})
			if imp, err := res.Improvement("SR 4", 0.88); err == nil {
				fmt.Printf("   SR4 vs RR at rho=0.88 under bursts: %.2fx\n", imp)
			}
			fmt.Println("   rows use the fig2 format (rho + per-policy mean[, ci95]) — diff the TSVs column for column")
			if *asciiPlot {
				if err := plot.Render(os.Stdout, plot.Config{
					Title: "Bursty sweep: mean response time (s) vs load", XLabel: "rho", YLabel: "rt(s)",
				}, res.Stats.PlotSeries()...); err != nil {
					return err
				}
			}
			return writeFile("bursty_mean_rt_vs_load.tsv", func(f *os.File) error { return res.WriteTSV(f) })
		})
	}

	if want("failover") {
		needLambda0()
		run("extension: LB-replica failover transient (maglev fallback vs random)", func() error {
			res := srlb.RunFailover(srlb.FailoverConfig{
				Cluster: cluster, Lambda0: lambda0, Queries: *queries,
				Seeds: seeds, Workers: *workers, Progress: progress,
			})
			for _, m := range res.Modes {
				fmt.Printf("   %-16s ok=%.4f±%.4f refused=%.0f unfinished=%.0f (n=%d)\n",
					m.Name, m.Stats.OKFraction.Dist.Mean, m.Stats.OKFraction.Dist.ReportedCI95(),
					m.Stats.Refused.Dist.Mean, m.Stats.Unfinished.Dist.Mean, m.Stats.N())
			}
			fmt.Printf("   replica 0 of %d killed at t=%.1fs\n", res.Replicas, res.KillAt.Seconds())
			return writeFile("extension_lb_failover.tsv", func(f *os.File) error { return res.WriteTSV(f) })
		})
	}

	if want("resilience") {
		needLambda0()
		run("extension: warm-handoff resilience ablation (stateless/chash/warm)", func() error {
			start := time.Now()
			res := srlb.RunResilience(srlb.ResilienceConfig{
				Cluster: cluster, Lambda0: lambda0, Queries: *queries,
				Seeds: seeds, Workers: *workers, Progress: progress,
			})
			for _, mode := range []string{"warm", "chash", "stateless"} {
				if row, err := res.Row("kill", mode); err == nil {
					fmt.Printf("   kill/%-10s ok=%.4f±%.4f refused=%.0f unfinished=%.0f (n=%d)\n",
						mode, row.OKFrac, row.OKFracCI95, row.Refused, row.Unfinished, row.N)
				}
			}
			fmt.Printf("   replica kill at %.0f%% of span, recover at %.0f%%; rack loses %.0f%% of servers\n",
				100*res.KillFrac, 100*res.RecoverFrac, 100*res.RackFrac)
			jsonName := sweepJSONName("BENCH_resilience.json")
			if err := writeResilienceJSON(*out, jsonName, lambda0, *workers, time.Since(start), res); err != nil {
				return err
			}
			wroteJSON(jsonName, "resilience rows with completion-rate CIs")
			return writeFile("extension_resilience.tsv", func(f *os.File) error { return res.WriteTSV(f) })
		})
	}

	if want("multiservice") {
		needLambda0()
		run("extension: concurrent multi-service mix (web+wiki+batch)", func() error {
			// The wiki service defaults to a faster replay than the
			// single-service figures (the experiment's own 288× default);
			// an explicit -compress overrides it.
			msCompress := 0.0
			flag.Visit(func(f *flag.Flag) {
				if f.Name == "compress" {
					msCompress = *compress
				}
			})
			start := time.Now()
			res := srlb.RunMultiService(srlb.MultiServiceConfig{
				Cluster: cluster, Lambda0: lambda0, Queries: *queries,
				Compression: msCompress,
				Seeds:       seeds, Workers: *workers, Progress: progress,
			})
			for _, svc := range res.Services {
				if imp, err := res.Improvement("SR 4", svc, 0.85); err == nil {
					fmt.Printf("   SR4 vs RR mean RT, %-5s service at rho=0.85: %.2fx\n", svc, imp)
				}
			}
			jsonName := sweepJSONName("BENCH_multiservice.json")
			if err := writeSweepDoc(*out, jsonName, lambda0, *workers, time.Since(start), res.Stats, nil, nil); err != nil {
				return err
			}
			wroteJSON(jsonName, "per-VIP rows")
			if *asciiPlot {
				facets := make([]plot.Facet, 0, len(res.Services))
				for _, svc := range res.Services {
					facets = append(facets, plot.Facet{
						Title:  fmt.Sprintf("Multi-service: %s mean response time (s) vs load", svc),
						Series: res.PlotSeries(svc),
					})
				}
				if err := plot.RenderFacets(os.Stdout, plot.Config{XLabel: "rho", YLabel: "rt(s)"}, facets...); err != nil {
					return err
				}
			}
			return writeFile("extension_multiservice.tsv", func(f *os.File) error { return res.WriteTSV(f) })
		})
	}

	if want("interference") {
		needLambda0()
		run("extension: cross-service interference on one shared pool (web vs batch surge)", func() error {
			start := time.Now()
			res := srlb.RunInterference(srlb.InterferenceConfig{
				Cluster: cluster, Lambda0: lambda0, Queries: *queries,
				Seeds: seeds, Workers: *workers, Progress: progress,
			})
			heavy := res.BatchRhos[len(res.BatchRhos)-1]
			for _, name := range []string{"RR", "SR 4", "SR dyn"} {
				deg, err := res.VictimDegradation(name)
				row, rowErr := res.Row(name, "web", heavy)
				if err == nil && rowErr == nil {
					fmt.Printf("   web p99 under %-7s at batch rho=%.2f: %.3fs (%.2fx its light-batch baseline)\n",
						name, heavy, row.P99.Seconds(), deg)
				}
			}
			jsonName := sweepJSONName("BENCH_interference.json")
			if err := writeSweepDoc(*out, jsonName, lambda0, *workers, time.Since(start), res.Stats, nil, nil); err != nil {
				return err
			}
			wroteJSON(jsonName, "per-VIP rows with per-service loads")
			if *asciiPlot {
				if err := plot.RenderFacets(os.Stdout, plot.Config{XLabel: "batch rho", YLabel: "p99(s)"}, res.PlotFacets()...); err != nil {
					return err
				}
			}
			return writeFile("extension_interference.tsv", func(f *os.File) error { return res.WriteTSV(f) })
		})
	}

	if want("policies") {
		needLambda0()
		run("extension: load-feedback policy ablation (random2/chash2/wleastload/flowlet)", func() error {
			start := time.Now()
			res := srlb.RunPolicies(srlb.PoliciesConfig{
				Cluster: cluster, Lambda0: lambda0, Queries: *queries,
				Seeds: seeds, Workers: *workers, Progress: progress,
			})
			heavy := res.BatchRhos[len(res.BatchRhos)-1]
			for _, name := range []string{"random2", "chash2", "wleastload", "flowlet"} {
				if row, err := res.Row("steady", name, "web", heavy); err == nil {
					fmt.Printf("   web p99 under %-10s at batch rho=%.2f: %.3fs ok=%.4f\n",
						name, heavy, row.P99.Seconds(), row.OKFrac)
				}
			}
			for _, variant := range res.Variants {
				fmt.Printf("   flowlet re-steers (%s): %.0f established flows moved mid-connection\n",
					variant, res.TotalResteers(variant, "flowlet"))
			}
			jsonName := sweepJSONName("BENCH_policies.json")
			if err := writePoliciesJSON(*out, jsonName, lambda0, *workers, time.Since(start), res); err != nil {
				return err
			}
			wroteJSON(jsonName, "policies rows with re-steer counts")
			if *asciiPlot {
				if err := plot.RenderFacets(os.Stdout, plot.Config{XLabel: "batch rho", YLabel: "p99(s)"}, res.PlotFacets()...); err != nil {
					return err
				}
			}
			return writeFile("extension_policies.tsv", func(f *os.File) error { return res.WriteTSV(f) })
		})
	}

	if want("rhogrid") {
		needLambda0()
		run("extension: rho-grid policy ablation (web-rho × batch-rho matrix, adaptive replication)", func() error {
			start := time.Now()
			res := srlb.RunRhoGrid(srlb.RhoGridConfig{
				Cluster: cluster, Lambda0: lambda0, Queries: *queries,
				Seeds: seeds,
				Adaptive: srlb.Adaptive{
					CITarget: *ciTarget,
					MaxSeeds: *maxSeeds,
				},
				Workers: *workers, Progress: progress,
			})
			fmt.Printf("   grid: %d web-rho × %d batch-rho points, %d policies\n",
				len(res.WebRhos), len(res.BatchRhos), len(res.Stats.Policies))
			if res.Adaptive {
				fmt.Printf("   adaptive budget: %d/%d replicates spent (%.0f%% of fixed; ci-target %.2f, max-seeds %d)\n",
					res.TotalReplicates(), res.FixedBudget(),
					100*float64(res.TotalReplicates())/float64(res.FixedBudget()),
					*ciTarget, res.MaxSeeds)
			}
			jsonName := sweepJSONName("BENCH_rhogrid.json")
			if err := writeSweepDoc(*out, jsonName, lambda0, *workers, time.Since(start), res.Stats, nil, nil); err != nil {
				return err
			}
			wroteJSON(jsonName, "grid cells with load_vec, per-cell n, stop_reason")
			if err := writeFile("rhogrid_heatmaps.txt", func(f *os.File) error {
				if err := plot.RenderHeatmaps(f, res.Heatmaps("p99")...); err != nil {
					return err
				}
				if _, err := fmt.Fprintln(f); err != nil {
					return err
				}
				return plot.RenderHeatmaps(f, res.Heatmaps("n")...)
			}); err != nil {
				return err
			}
			if *asciiPlot {
				if err := plot.RenderHeatmaps(os.Stdout, res.Heatmaps("p99")...); err != nil {
					return err
				}
			}
			return writeFile("extension_rhogrid.tsv", func(f *os.File) error { return res.WriteTSV(f) })
		})
	}

	// The horizon soak runs only when named: 10⁸ queries take minutes of
	// host time, far outside the "all" budget.
	if *experiment == "horizon" {
		needLambda0()
		run(fmt.Sprintf("horizon: %.0e-query constant-memory soak", float64(*horizonQ)), func() error {
			lastPct := -1
			res, err := srlb.RunHorizon(context.Background(), srlb.HorizonConfig{
				Cluster: cluster, Lambda0: lambda0,
				Queries: *horizonQ, Rho: *horizonRho,
				Progress: func(done, total uint64) {
					if !*verbose {
						return
					}
					if pct := int(100 * done / total); pct != lastPct {
						lastPct = pct
						fmt.Fprintf(os.Stderr, "  %3d%% (%d/%d queries)\n", pct, done, total)
					}
				},
			})
			if err != nil {
				return err
			}
			fmt.Printf("   %d queries, peak heap %.1f MB, %.0f q/s host throughput\n",
				res.Queries, float64(res.PeakHeap)/(1<<20), res.QPS())
			fmt.Printf("   mean=%.3fms p50=%.3fms p99=%.3fms ok=%d refused=%d unfinished=%d\n",
				res.RT.Mean().Seconds()*1e3, res.RT.Median().Seconds()*1e3, res.RT.Quantile(0.99).Seconds()*1e3,
				res.Counters.OK, res.Counters.Refused, res.Counters.Unfinished)
			return writeFile("horizon.tsv", func(f *os.File) error { return res.WriteSummary(f) })
		})
	}

	if want("vipscale") {
		run("extension: VIP-scale dispatch cost (100 -> 10k services)", func() error {
			start := time.Now()
			res := srlb.RunVIPScale(srlb.VIPScaleConfig{
				VIPCounts: *vipCounts, Seed: *seed, Progress: progress,
			})
			for _, row := range res.Rows {
				fmt.Printf("   %-12s vips=%-6d build=%7.1fms syn=%6.0f ns/pkt steer=%6.0f ns/pkt\n",
					row.Scheme, row.VIPs, row.BuildMS, row.SYNNs, row.SteerNs)
			}
			fmt.Printf("   flatness (largest/smallest dispatch cost across schemes): %.2fx — O(1) stays near 1, O(n) tracks the count ratio\n",
				res.FlatnessRatio())
			jsonName := sweepJSONName("BENCH_vipscale.json")
			if err := writeVIPScaleJSON(*out, jsonName, time.Since(start), res); err != nil {
				return err
			}
			wroteJSON(jsonName, "vipscale rows")
			if *asciiPlot {
				if err := plot.RenderFacets(os.Stdout, plot.Config{XLabel: "#services", YLabel: "ns/pkt"}, res.Plot()...); err != nil {
					return err
				}
			}
			return writeFile("vipscale_dispatch.tsv", func(f *os.File) error { return res.WriteTSV(f) })
		})
	}

	if want("churn") {
		needLambda0()
		run("extension: pool churn/autoscale under load", func() error {
			res := srlb.RunChurn(srlb.ChurnConfig{
				Cluster: cluster, Lambda0: lambda0, Queries: *queries,
				Seeds: seeds, Workers: *workers, Progress: progress,
			})
			for _, name := range []string{"RR", "SR 4", "SR dyn"} {
				if pen, err := res.ChurnPenalty(name, 0.95); err == nil {
					fmt.Printf("   churn penalty %-7s at rho=0.95: %.2fx\n", name, pen)
				}
			}
			return writeFile("extension_churn.tsv", func(f *os.File) error { return res.WriteTSV(f) })
		})
	}
}

// intList is a comma-separated []int flag (the vipscale count axis).
type intList []int

func (l *intList) String() string {
	if l == nil {
		return ""
	}
	s := ""
	for i, v := range *l {
		if i > 0 {
			s += ","
		}
		s += strconv.Itoa(v)
	}
	return s
}

func (l *intList) Set(s string) error {
	var out []int
	for _, part := range strings.Split(s, ",") {
		part = strings.TrimSpace(part)
		if part == "" {
			continue
		}
		v, err := strconv.Atoi(part)
		if err != nil {
			return fmt.Errorf("bad count %q: %w", part, err)
		}
		if v < 1 {
			return fmt.Errorf("count %d must be ≥ 1", v)
		}
		out = append(out, v)
	}
	if len(out) == 0 {
		return fmt.Errorf("empty count list")
	}
	*l = out
	return nil
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

// writeVIPScaleJSON renders the vipscale dispatch-cost sweep in the
// BENCH_sweep.json envelope (vipscale rows; see docs/RESULTS_SCHEMA.md).
func writeVIPScaleJSON(dir, name string, total time.Duration, res srlb.VIPScaleResult) error {
	doc := sweepJSON{
		SchemaVersion: sweepSchemaVersion,
		GOMAXPROCS:    runtime.GOMAXPROCS(0),
		TotalWallMS:   float64(total.Microseconds()) / 1e3,
	}
	for _, row := range res.Rows {
		doc.VIPScale = append(doc.VIPScale, vipScaleRowJSON(row))
	}
	buf, err := json.MarshalIndent(doc, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(filepath.Join(dir, name), append(buf, '\n'), 0o644)
}

// writePoliciesJSON is writeSweepDoc plus the policy-ablation rows:
// the per-cell aggregates come from the underlying sweep,
// the policies section carries the victim-view rows with the flowlet
// re-steer counts.
func writePoliciesJSON(dir, name string, lambda0 float64, workers int, total time.Duration, res srlb.PoliciesResult) error {
	rows := make([]policiesRowJSON, 0, len(res.Rows))
	for _, row := range res.Rows {
		rows = append(rows, policiesRowJSON{
			Variant:  row.Variant,
			BatchRho: row.Rho,
			Policy:   row.Policy,
			Service:  row.Service,
			Load:     row.Load,
			N:        row.N,
			Offered:  row.Offered,
			MeanMS:   row.Mean.Seconds() * 1e3,
			P99MS:    row.P99.Seconds() * 1e3,
			OKFrac:   row.OKFrac,
			Resteers: row.Resteers,
		})
	}
	return writeSweepDoc(dir, name, lambda0, workers, total, res.Stats, rows, nil)
}

// writeResilienceJSON is writeSweepDoc plus the resilience-ablation
// rows: the per-cell aggregates come from the underlying
// 3×3 sweep, the resilience section carries the per-(scenario, mode)
// completion-rate rows.
func writeResilienceJSON(dir, name string, lambda0 float64, workers int, total time.Duration, res srlb.ResilienceResult) error {
	rows := make([]resilienceRowJSON, 0, len(res.Rows))
	for _, row := range res.Rows {
		rows = append(rows, resilienceRowJSON{
			Scenario:   row.Scenario,
			Mode:       row.Mode,
			N:          row.N,
			OKFrac:     row.OKFrac,
			OKFracCI95: row.OKFracCI95,
			MeanMS:     row.MeanRT * 1e3,
			MeanCI95MS: row.MeanRTCI95 * 1e3,
			P99MS:      row.P99 * 1e3,
			Refused:    row.Refused,
			Unfinished: row.Unfinished,
		})
	}
	return writeSweepDoc(dir, name, lambda0, workers, total, res.Stats, nil, rows)
}

// writeSweepDoc renders sweep aggregates as BENCH_sweep.json
// (documented in docs/RESULTS_SCHEMA.md): one entry per logical
// (policy, variant, load) cell, each carrying the n/mean/ci95 aggregates
// of its replicates, plus the per-service breakdown (with per-service
// resolved loads) for multi-VIP cells, plus the experiment's own rows.
func writeSweepDoc(dir, name string, lambda0 float64, workers int, total time.Duration, agg srlb.SweepStats, policies []policiesRowJSON, resilience []resilienceRowJSON) error {
	doc := sweepJSON{
		SchemaVersion: sweepSchemaVersion,
		Lambda0:       lambda0,
		Workers:       workers,
		GOMAXPROCS:    runtime.GOMAXPROCS(0),
		Seeds:         agg.Seeds,
		TotalWallMS:   float64(total.Microseconds()) / 1e3,
		Policies:      policies,
		Resilience:    resilience,
	}
	for _, c := range agg.Cells {
		if c.N() == 0 {
			continue
		}
		cell := sweepCellJSON{
			Policy:      c.Policy,
			Workload:    c.Workload,
			Variant:     c.Variant,
			Load:        c.Load,
			LoadVec:     c.LoadVec,
			StopReason:  c.StopReason,
			N:           c.N(),
			Seeds:       c.Seeds,
			outcomeJSON: outcome(c.OutcomeStats),
			WallMS:      float64(c.Wall.Microseconds()) / 1e3,
		}
		for _, v := range c.VIPs {
			cell.VIPs = append(cell.VIPs, vipCellJSON{
				Name:        v.Name,
				Workload:    v.Workload,
				Load:        v.Load,
				Offered:     dist(v.Offered.Dist),
				outcomeJSON: outcome(v.OutcomeStats),
				Unfinished:  dist(v.Unfinished.Dist),
			})
		}
		doc.Cells = append(doc.Cells, cell)
	}
	buf, err := json.MarshalIndent(doc, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(filepath.Join(dir, name), append(buf, '\n'), 0o644)
}
