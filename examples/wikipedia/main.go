// Wikipedia: a miniature of the paper's §VI replay (figures 6–8).
//
// Synthesizes a diurnal Wikipedia-like day — Zipf page popularity,
// per-server memcached models, 4 static objects per wiki page — and
// replays it as one Sweep on the composable API: {RR, SR4} × 3
// replication seeds over a WikiWorkload. The trace is identical in
// every cell (it is the workload); the seeds vary the testbed side —
// candidate selection and replica cache layout — so the whole-day
// summary comes out as median/Q3 with 95% CIs instead of single-run
// point estimates.
//
//	go run ./examples/wikipedia
package main

import (
	"context"
	"fmt"
	"os"

	"srlb/internal/experiments"
	"srlb/internal/stats"
	"srlb/internal/wiki"
)

func main() {
	const nSeeds = 3
	day := wiki.Config{
		Seed: 3,
		// Compress the 24-hour day into 10 simulated minutes: load levels
		// (and thus the RR-vs-SR4 contrast) are preserved, statistical
		// noise per bin grows. cmd/srlb-bench runs the full day.
		Compression: 144,
	}

	policies := []experiments.PolicySpec{experiments.RR(), experiments.SRc(4)}
	res, err := experiments.Runner{
		Progress: func(s string) { fmt.Fprintln(os.Stderr, "  "+s) },
	}.RunSweep(context.Background(), experiments.Sweep{
		Cluster:  experiments.ClusterConfig{Seed: 3, Servers: 12},
		Policies: policies,
		Seeds:    experiments.DeriveSeeds(3, nSeeds),
		Workload: experiments.WikiWorkload{Day: day},
	})
	if err != nil {
		panic(err)
	}
	// Each cell's Wiki field is the full per-run WikiRun (time bins,
	// launch counts, cache hit rates); nil on a skipped cell.
	runFor := func(pi, si int) *experiments.WikiRun { return res.Cell(pi, 0, si).Outcome.Wiki }
	fmt.Println("\nmedian wiki-page load time (s) by time of day (first seed):")
	fmt.Println("time      rate_qps   RR      SR4")
	ref, sr0 := runFor(0, 0), runFor(1, 0)
	if ref == nil || sr0 == nil {
		panic("first-seed replay did not complete")
	}
	for i := 0; i < ref.WikiBins.NumBins(); i += 6 { // hourly rows (10-min bins)
		real := day.RealTime(ref.WikiBins.BinStart(i))
		fmt.Printf("%02d:00     %6.1f   %6.3f  %6.3f\n",
			int(real.Hours()),
			ref.Rate(i),
			ref.WikiBins.Bin(i).Median().Seconds(),
			sr0.WikiBins.Bin(i).Median().Seconds())
	}

	// Whole-day summary across the replication axis: per-seed median and
	// Q3 of wiki-page load time, folded into mean ± 95% CI.
	fmt.Printf("\nwhole-day summary over %d seeds (paper fig. 8: median 0.25s->0.20s, Q3 0.48s->0.28s):\n", nSeeds)
	for pi, p := range policies {
		var medians, q3s, hits []float64
		for si := 0; si < nSeeds; si++ {
			run := runFor(pi, si)
			if run == nil {
				continue
			}
			medians = append(medians, run.WikiAll.Median().Seconds())
			q3s = append(q3s, run.WikiAll.Quantile(0.75).Seconds())
			var h float64
			for _, r := range run.HitRates {
				h += r
			}
			hits = append(hits, h/float64(len(run.HitRates)))
		}
		med, q3 := stats.Describe(medians), stats.Describe(q3s)
		fmt.Printf("  %-5s median=%.3fs ±%.3f  q3=%.3fs ±%.3f  cache-hit=%.2f\n",
			p.Name, med.Mean, med.CI95, q3.Mean, q3.CI95, stats.Describe(hits).Mean)
	}
}
