// Poisson-sweep: a miniature of the paper's figure 2, with error bars.
//
// Builds the sweep directly on the composable API — one Sweep value:
// every paper policy × a coarse load grid × 3 replication seeds over
// the calibrated Poisson workload — runs it on the parallel Runner, and
// aggregates the replicates into mean ± 95% CI per point. The table
// shows where the power of two choices pays (high load), where it is
// neutral (light load), and — through the intervals — which of those
// differences the three seeds can actually resolve.
//
//	go run ./examples/poisson-sweep
package main

import (
	"context"
	"fmt"
	"os"

	"srlb/internal/experiments"
)

func main() {
	const (
		seed    = 11
		queries = 8000
		nSeeds  = 3
	)
	cluster := experiments.ClusterConfig{Seed: seed, Servers: 12}

	// §V-A bootstrap, memoized per cluster fingerprint: rerunning this
	// example (or any figure) in the same process reuses the probes.
	cal := experiments.CalibrateCached(experiments.CalibrationConfig{Cluster: cluster})
	fmt.Fprintf(os.Stderr, "lambda0 = %.1f q/s (theoretical %.1f)\n", cal.Lambda0, cal.Theoretical)

	// A coarse grid keeps the example fast; cmd/srlb-bench sweeps the
	// paper's full 24 points (and takes -seeds for deeper replication).
	sweep := experiments.Sweep{
		Cluster:  cluster,
		Policies: experiments.PaperPolicies(),
		Loads:    []float64{0.2, 0.4, 0.6, 0.75, 0.88, 0.95},
		Seeds:    experiments.DeriveSeeds(seed, nSeeds),
		Workload: experiments.OneService(experiments.PoissonService{Lambda0: cal.Lambda0, Queries: queries}),
	}
	agg, err := experiments.Runner{
		Progress: func(s string) { fmt.Fprintln(os.Stderr, "  "+s) },
	}.RunSweepStats(context.Background(), sweep)
	if err != nil {
		panic(err)
	}

	fmt.Printf("\nmean response time (s) ± 95%% CI over %d seeds, by normalized load\n\n", nSeeds)
	fmt.Print("rho    ")
	for _, p := range agg.Policies {
		fmt.Printf("%16s", p.Name)
	}
	fmt.Println()
	for li, rho := range agg.Loads {
		fmt.Printf("%.2f   ", rho)
		for pi := range agg.Policies {
			cell := agg.Cell(pi, li)
			fmt.Printf("  %6.3f ±%5.3f",
				cell.Mean.Dist.Mean, cell.Mean.Dist.ReportedCI95())
		}
		fmt.Println()
	}

	// The paper's headline, now with uncertainty attached: RR vs SR4 and
	// SRdyn at ρ = 0.88 (load index 4).
	rr := agg.Cell(0, 4).Mean.Dist
	for pi, p := range agg.Policies {
		if p.Name != "SR 4" && p.Name != "SR dyn" {
			continue
		}
		d := agg.Cell(pi, 4).Mean.Dist
		fmt.Printf("\n%s vs RR at rho=0.88: %.2fx better", p.Name, rr.Mean/d.Mean)
		if d.Hi() < rr.Lo() {
			fmt.Print(" (intervals separate — the gap is resolved at 3 seeds)")
		} else {
			fmt.Print(" (intervals overlap — add seeds to resolve)")
		}
	}
	fmt.Println("\n(paper: up to 2.3x for SR4; SRdyn tracks it without tuning)")
}
