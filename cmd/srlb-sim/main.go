// Command srlb-sim runs a single Poisson-workload simulation with every
// testbed knob exposed as a flag, and prints a summary: response-time
// statistics, per-server utilization and counters — a lab bench for
// exploring SRLB configurations outside the paper's fixed grid.
//
// Usage:
//
//	srlb-sim -policy sr4 -rho 0.88
//	srlb-sim -policy srdyn -rate 150 -queries 50000 -servers 24
//	srlb-sim -policy src:6 -rho 0.7 -workers 16 -cores 1
//	srlb-sim -policy sr4 -rho 0.6 -workload bursty
//	srlb-sim -policy sr4 -rho 0.85 -queries 100000 -cpuprofile cpu.pprof
//	srlb-sim -policy sr4 -rho 0.85 -queries 100000 -memprofile mem.pprof
//
// -cpuprofile and -memprofile write runtime/pprof profiles of the whole
// run, calibration included (give -rate to leave it out). -memprofile
// records every allocation rather than a sample, so that
// `go tool pprof -sample_index=alloc_objects -top mem.pprof` divided by
// -queries is the exact per-site allocation count of one query; the run
// is several times slower for it, so take the two profiles separately.
package main

import (
	"context"
	"flag"
	"fmt"
	"math"
	"os"
	"strconv"
	"strings"
	"time"

	"srlb"
	"srlb/internal/appserver"
	"srlb/internal/experiments"
	"srlb/internal/profile"
	"srlb/internal/testbed"
)

func parsePolicy(s string) (srlb.Policy, error) {
	lower := strings.ToLower(s)
	switch lower {
	case "rr":
		return srlb.RR(), nil
	case "srdyn", "dyn":
		return srlb.SRDynamic(), nil
	}
	switch {
	case strings.HasPrefix(lower, "src:"):
		c, err := strconv.Atoi(lower[4:])
		if err != nil {
			return srlb.Policy{}, fmt.Errorf("bad policy %q", s)
		}
		return srlb.SRStatic(c), nil
	case strings.HasPrefix(lower, "sr"):
		c, err := strconv.Atoi(lower[2:])
		if err != nil {
			return srlb.Policy{}, fmt.Errorf("bad policy %q", s)
		}
		return srlb.SRStatic(c), nil
	}
	return srlb.Policy{}, fmt.Errorf("unknown policy %q (want rr, srN, src:N, srdyn)", s)
}

func main() { os.Exit(simulate()) }

// checkCounts rejects numeric flags no run can use: a rate, load or core
// count that is not finite, a negative size or rate, and a load or query
// count that is not positive. A zero size keeps meaning the paper's
// default.
func checkCounts() error {
	for _, name := range []string{"rate", "rho", "cores"} {
		value := flag.Lookup(name).Value.String()
		if v, _ := strconv.ParseFloat(value, 64); math.IsNaN(v) || math.IsInf(v, 0) {
			return fmt.Errorf("-%s must be a finite number (got %s)", name, value)
		}
	}
	for _, name := range []string{"rate", "servers", "workers", "cores", "backlog"} {
		value := flag.Lookup(name).Value.String()
		if v, _ := strconv.ParseFloat(value, 64); v < 0 {
			return fmt.Errorf("-%s must not be negative (got %s)", name, value)
		}
	}
	for _, name := range []string{"rho", "queries"} {
		value := flag.Lookup(name).Value.String()
		if v, _ := strconv.ParseFloat(value, 64); v <= 0 {
			return fmt.Errorf("-%s must be positive (got %s)", name, value)
		}
	}
	return nil
}

// simulate is main returning its exit code, so that the profiles are
// stopped and written on every path out.
func simulate() (code int) {
	var (
		policyFlag = flag.String("policy", "sr4", "rr | srN (e.g. sr4) | src:N | srdyn")
		rate       = flag.Float64("rate", 0, "absolute arrival rate in queries/sec")
		rho        = flag.Float64("rho", 0.88, "normalized load (used when -rate is 0; lambda0 is calibrated first)")
		queries    = flag.Int("queries", 20000, "number of queries")
		servers    = flag.Int("servers", 12, "application servers")
		workers    = flag.Int("workers", 32, "worker threads per server")
		cores      = flag.Float64("cores", 2, "CPU cores per server")
		backlog    = flag.Int("backlog", 128, "TCP accept backlog per server")
		noAbort    = flag.Bool("no-abort-on-overflow", false, "silently drop instead of RST on backlog overflow")
		workload   = flag.String("workload", "poisson", "poisson | bursty (on/off MMPP at the same mean rate)")
		seed       = flag.Uint64("seed", 1, "RNG seed")
		cpuProfile = flag.String("cpuprofile", "", "write a CPU profile of the run to this file")
		memProfile = flag.String("memprofile", "", "write an allocation profile of the run to this file (records every allocation: slower)")
	)
	flag.Parse()
	stopProfiles, err := profile.Start(*cpuProfile, *memProfile)
	if err != nil {
		fmt.Fprintf(os.Stderr, "srlb-sim: %v\n", err)
		return 2
	}
	defer func() {
		if err := stopProfiles(); err != nil {
			fmt.Fprintf(os.Stderr, "srlb-sim: %v\n", err)
			code = max(code, 1)
		}
	}()

	spec, err := parsePolicy(*policyFlag)
	if err != nil {
		fmt.Fprintf(os.Stderr, "srlb-sim: %v\n", err)
		return 2
	}
	if *workload != "poisson" && *workload != "bursty" {
		fmt.Fprintf(os.Stderr, "srlb-sim: unknown workload %q (want poisson or bursty)\n", *workload)
		return 2
	}
	if err := checkCounts(); err != nil {
		fmt.Fprintf(os.Stderr, "srlb-sim: %v\n", err)
		return 2
	}
	cluster := srlb.Cluster{
		Seed:    *seed,
		Servers: *servers,
		Server: appserver.Config{
			Workers:         *workers,
			Cores:           *cores,
			Backlog:         *backlog,
			AbortOnOverflow: !*noAbort,
		},
	}
	r := *rate
	if r == 0 {
		cal := srlb.Calibrate(srlb.Calibration{Cluster: cluster, Queries: *queries})
		if cal.Err != nil {
			fmt.Fprintf(os.Stderr, "srlb-sim: %v; raise -queries, or set -rate\n", cal.Err)
			return 2
		}
		r = *rho * cal.Lambda0
		fmt.Printf("lambda0 = %.1f q/s (theoretical %.1f); running at rho=%.2f -> %.1f q/s\n",
			cal.Lambda0, cal.Theoretical, *rho, r)
	}

	if *workload == "bursty" {
		// The bursty cell runs through the Scenario API; per-server
		// completions come from the outcome's ClusterStats.
		cell := srlb.Scenario{
			Cluster:  cluster,
			Policy:   spec,
			Workload: srlb.OneService(srlb.BurstyService{Lambda0: r, Queries: *queries}),
		}.Run(context.Background())
		out := cell.Outcome
		fmt.Printf("\npolicy %s, %s: %d queries at mean %.1f q/s\n",
			spec.Name, cell.Workload, *queries, r)
		fmt.Printf("  completed : %d (%.2f%%)\n", out.RT.Count(), 100*out.OKFraction())
		fmt.Printf("  refused   : %d (RST on backlog overflow)\n", out.Refused)
		fmt.Printf("  unfinished: %d\n", out.Unfinished)
		if out.RT.Count() > 0 {
			fmt.Printf("  response time: mean=%.3fs median=%.3fs p90=%.3fs p99=%.3fs max=%.3fs\n",
				out.RT.Mean().Seconds(), out.RT.Median().Seconds(),
				out.RT.Quantile(0.9).Seconds(), out.RT.Quantile(0.99).Seconds(),
				out.RT.Max().Seconds())
		}
		fmt.Println("\nper-server completions:")
		for i, done := range out.Cluster.ServerCompleted {
			fmt.Printf("  server-%-4d completed=%d\n", i, done)
		}
		return 0
	}

	var tb *testbed.Testbed
	run := experiments.RunPoisson(cluster, spec, r, *queries, experiments.PoissonHooks{
		Testbed: func(t *testbed.Testbed, _ time.Duration) { tb = t },
	})

	fmt.Printf("\npolicy %s: %d queries at %.1f q/s\n", spec.Name, *queries, r)
	fmt.Printf("  completed : %d (%.2f%%)\n", run.RT.Count(), 100*run.OKFraction())
	fmt.Printf("  refused   : %d (RST on backlog overflow)\n", run.Refused)
	fmt.Printf("  unfinished: %d\n", run.Unfinished)
	if run.RT.Count() > 0 {
		fmt.Printf("  response time: mean=%.3fs median=%.3fs p90=%.3fs p99=%.3fs max=%.3fs\n",
			run.RT.Mean().Seconds(), run.RT.Median().Seconds(),
			run.RT.Quantile(0.9).Seconds(), run.RT.Quantile(0.99).Seconds(),
			run.RT.Max().Seconds())
	}
	if tb != nil {
		fmt.Println("\nper-server:")
		for i, s := range tb.Servers {
			st := s.Stats()
			fmt.Printf("  %-10s admitted=%-6d completed=%-6d rejected=%-5d util=%.2f\n",
				s.Name(), st.Admitted, st.Completed, st.Rejected, s.Utilization(0))
			_ = i
		}
		fmt.Println("\nload balancer counters:")
		for _, k := range tb.LB.Counts.Keys() {
			fmt.Printf("  %-20s %d\n", k, tb.LB.Counts.Get(k))
		}
		fmt.Printf("  flow table: %d live entries, stats %+v\n", tb.LB.FlowCount(), tb.LB.FlowStats())
	}
	return 0
}
