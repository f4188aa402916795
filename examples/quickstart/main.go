// Quickstart: the two-minute tour of SRLB and its experiment API.
//
// Calibrates the paper's 12-server testbed once, then runs one parallel
// Sweep — every paper policy against the same high-load Poisson workload
// (§V) — and prints the response-time comparison that is the paper's
// headline result. A second mini-sweep swaps in the bursty (flowlet-style
// on/off) workload to show that scenarios compose: same cluster, same
// policies, different arrival process, one line changed.
//
//	go run ./examples/quickstart
package main

import (
	"context"
	"fmt"

	"srlb/internal/experiments"
)

func main() {
	const (
		seed    = 7
		servers = 12
		queries = 20000
		rho     = 0.88 // the paper's high-load operating point
	)

	fmt.Printf("SRLB quickstart: %d servers, %d queries, rho=%.2f\n\n", servers, queries, rho)

	cluster := experiments.ClusterConfig{Seed: seed, Servers: servers}

	// §V-A bootstrap: find the max sustainable rate.
	cal := experiments.Calibrate(experiments.CalibrationConfig{Cluster: cluster})
	fmt.Printf("calibrated lambda0 = %.1f queries/s (theoretical %.1f)\n\n",
		cal.Lambda0, cal.Theoretical)

	// One Sweep, every policy, run in parallel on all cores.
	policies := []experiments.PolicySpec{experiments.RR(), experiments.SRc(4), experiments.SRdyn()}
	res, err := experiments.Runner{}.RunSweep(context.Background(), experiments.Sweep{
		Cluster:  cluster,
		Policies: policies,
		Loads:    []float64{rho},
		Workload: experiments.OneService(experiments.PoissonService{Lambda0: cal.Lambda0, Queries: queries}),
	})
	if err != nil {
		panic(err)
	}
	fmt.Println("Poisson workload (the paper's SS V):")
	for pi, policy := range policies {
		cell := res.Cell(pi, 0, 0)
		fmt.Printf("%-7s mean=%.3fs median=%.3fs p90=%.3fs refused=%d\n",
			policy.Name, cell.Outcome.RT.Mean().Seconds(),
			cell.Outcome.RT.Median().Seconds(),
			cell.Outcome.RT.Quantile(0.9).Seconds(), cell.Outcome.Refused)
	}

	// Scenarios compose: the same sweep over a bursty arrival process.
	// Mean load 0.6 — but the ON bursts run at 3× that, so the cluster
	// oscillates between slack and overload, which is exactly the regime
	// where hunting beats blind spraying.
	bursty, err := experiments.Runner{}.RunSweep(context.Background(), experiments.Sweep{
		Cluster:  cluster,
		Policies: policies,
		Loads:    []float64{0.6},
		Workload: experiments.OneService(experiments.BurstyService{Lambda0: cal.Lambda0, Queries: queries}),
	})
	if err != nil {
		panic(err)
	}
	fmt.Println("\nbursty (flowlet-style on/off) workload, mean load 0.6:")
	for pi, policy := range policies {
		rt := bursty.Cell(pi, 0, 0).Outcome.RT
		fmt.Printf("%-7s mean=%.3fs p90=%.3fs\n",
			policy.Name, rt.Mean().Seconds(), rt.Quantile(0.9).Seconds())
	}

	// The Poisson sweep already holds the headline: RR is policy 0, SR4 policy 1.
	rrMean, srMean := res.Cell(0, 0, 0).Outcome.RT.Mean(), res.Cell(1, 0, 0).Outcome.RT.Mean()
	fmt.Printf("\nthe power of choices: SR4 is %.1fx faster than RR at rho=%.2f\n",
		float64(rrMean)/float64(srMean), rho)
	fmt.Println("(the paper reports up to 2.3x at this load — figure 2)")
}
