package experiments

import (
	"context"
	"fmt"
	"hash/fnv"
	"testing"
	"time"

	"srlb/internal/testbed"
)

// cellDigest renders an outcome as "<label> ok/refused/unfinished
// <hash>": the hash covers the RT sketch (count, sum, extremes, its
// 512-point CDF), the failure counts and every payload value.
func cellDigest(label string, out CellOutcome, payload ...any) string {
	h := fnv.New64a()
	rt := out.RT
	fmt.Fprint(h, rt.Count(), rt.Sum(), rt.Min(), rt.Max(), rt.CDF(512), out.Refused, out.Unfinished)
	for _, p := range payload {
		fmt.Fprintf(h, "|%v", p)
	}
	return fmt.Sprintf("%s %d/%d/%d %016x", label, rt.Count(), out.Refused, out.Unfinished, h.Sum64())
}

// TestSingleServiceCellDigests pins every single-service cell form on a
// small cluster: the workload's label, its RT sketch and failure counts,
// and the payload each form carries (per-server completions and the
// retransmit counters, figure 4's timeline, the failover bins, the
// simulator's event count). The cell-level goldens reach most of these
// only through rounded TSV columns.
func TestSingleServiceCellDigests(t *testing.T) {
	cluster := smallCluster(13)
	silent := cluster
	silent.Server = serverWithBacklog(8)
	silent.Server.AbortOnOverflow = false
	failing := cluster
	failing.Replicas = 2
	failing.Events = []testbed.Event{testbed.FailReplica(0.5, 0)}

	cell := func(w Workload, c ClusterConfig, load float64) CellResult {
		res := Scenario{Cluster: c, Policy: SRc(4), Workload: w, Load: load}.Run(context.Background())
		if res.Err != nil {
			t.Fatal(res.Err)
		}
		return res
	}
	stats := func(res CellResult) string {
		ps := res.Outcome.Cluster
		return cellDigest(res.Workload, res.Outcome, ps.ServerCompleted, ps.Retransmits, ps.SYNTimeouts)
	}
	cases := []struct {
		name string
		got  func() string
		want string
	}{
		{"poisson", func() string {
			return stats(cell(OneService(PoissonService{Lambda0: 80, Queries: 1500}), cluster, 0.85))
		}, "poisson(1500q) 1500/0/0 627979ee3ad5a194"},
		{"poisson+rto", func() string {
			w := OneService(PoissonService{Lambda0: 80, Queries: 1500})
			w.RetransmitRTO = time.Second
			return stats(cell(w, silent, 2))
		}, "poisson(1500q) 1369/0/131 02b9c9e0e87c6c41"},
		{"bursty", func() string {
			w := OneService(BurstyService{Lambda0: 80, Queries: 1500, PeakFactor: 4})
			return stats(cell(w, cluster, 0.6))
		}, "bursty(1500q,peak=4.0x) 1500/0/0 f46df3c20adadd91"},
		{"fig4", func() string {
			w := fig4Workload{arrivals: PoissonService{Lambda0: 80, Queries: 1500}}
			res := cell(w, cluster, 0.88)
			return cellDigest(res.Workload, res.Outcome, res.Outcome.LoadSamples)
		}, "poisson+load-sampling(1500q) 1500/0/0 e60334debacd3fe5"},
		{"failover", func() string {
			res := cell(OneService(PoissonService{Lambda0: 80, Queries: 1500}), failing, 0.85)
			// The fields aggregateFailoverBins reads, under a fixed label:
			// the bins are what RunFailover folds, whichever workload
			// fills them.
			var bins []string
			for _, b := range res.Outcome.Timeline.Bins {
				bins = append(bins, fmt.Sprint(b.Launched, b.OK, b.SumRT))
			}
			return cellDigest("failover", res.Outcome, bins)
		}, "failover 1135/0/365 cdf0c08adbc5eb81"},
		{"RunPoisson", func() string {
			var tb *testbed.Testbed
			run := RunPoisson(cluster, SRc(4), 60, 1500, PoissonHooks{
				Testbed: func(built *testbed.Testbed, _ time.Duration) { tb = built },
			})
			out := CellOutcome{RT: run.RT, Refused: run.Refused, Unfinished: run.Unfinished}
			return cellDigest("RunPoisson", out, tb.Sim.Processed())
		}, "RunPoisson 1500/0/0 c8eedeeba3f25911"},
	}
	for _, tc := range cases {
		if got := tc.got(); got != tc.want {
			t.Errorf("%s: digest %q, want %q", tc.name, got, tc.want)
		}
	}
}

// oneServiceCells runs the Poisson-family golden configs' cells: every
// cell of the fig. 2 and bursty goldens, the retransmit golden's
// silent-drop cell, a figure 4 cell and a failover cell.
func oneServiceCells() []CellResult {
	var cells []CellResult
	for _, cfg := range []Fig2Config{goldenFig2Config, goldenBurstyConfig} {
		cells = append(cells, RunFig2(cfg).Cells...)
	}
	silent := ClusterConfig{Seed: 21, Servers: 4, Server: serverWithBacklog(8)}
	silent.Server.AbortOnOverflow = false
	retransmitting := OneService(PoissonService{Lambda0: 80, Queries: 1500})
	retransmitting.RetransmitRTO = time.Second
	failing := smallCluster(31)
	failing.Replicas = 2
	failing.Events = []testbed.Event{testbed.FailReplica(0.5, 0)}
	for _, sc := range []Scenario{
		{Cluster: silent, Policy: SRc(4), Workload: retransmitting, Load: 2},
		{Cluster: smallCluster(7), Policy: RR(), Load: 0.88, Workload: fig4Workload{
			arrivals: PoissonService{Lambda0: 80, Queries: 2000},
		}},
		{Cluster: failing, Policy: SRc(4), Load: 0.85, Workload: OneService(PoissonService{Lambda0: 80, Queries: 2000})},
	} {
		cells = append(cells, sc.Run(context.Background()))
	}
	return cells
}

// A one-service cell's PerVIP[0] restates its aggregate on
// oneServiceCells. The sink counts each query once for its VIP and once
// for the cell, so the VIP's offered, refused and unfinished counts must
// reproduce the aggregate's completed + refused + unfinished; the RT
// sketch is the aggregate's own (the cell keeps one).
func TestOneServicePerVIPIsAggregate(t *testing.T) {
	for _, c := range oneServiceCells() {
		out := c.Outcome
		if len(out.PerVIP) != 1 {
			t.Fatalf("%s: %d PerVIP entries, want 1", c.Name, len(out.PerVIP))
		}
		v := out.PerVIP[0]
		if !v.RT.Equal(out.RT) || v.Refused != out.Refused || v.Unfinished != out.Unfinished ||
			v.Offered != out.total().Offered || v.Load != c.Load {
			t.Errorf("%s: PerVIP[0] %d/%d/%d of %d at load %g, aggregate %d/%d/%d at load %g",
				c.Name, v.RT.Count(), v.Refused, v.Unfinished, v.Offered, v.Load,
				out.RT.Count(), out.Refused, out.Unfinished, c.Load)
		}
	}
}

// A cell's issue-time timeline accounts for every query exactly once:
// summed over its bins, Launched is the queries offered to the cell's
// VIPs, OK the RT sketch's count and SumRT its exact sum. Checked on
// oneServiceCells and on a two-service cell, whose timeline covers both
// VIPs.
func TestTimelineConservesCell(t *testing.T) {
	multi := Scenario{Cluster: smallCluster(47), Policy: SRc(4), Load: 0.8, Workload: sharedPoolServices(500, 6*time.Second)}
	for _, c := range append(oneServiceCells(), multi.Run(context.Background())) {
		out := c.Outcome
		var launched, ok, used int
		var sum time.Duration
		for _, b := range out.Timeline.Bins {
			launched += b.Launched
			ok += b.OK
			sum += b.SumRT
			if b.Launched > 0 {
				used++
			}
		}
		offered := 0
		for _, v := range out.PerVIP {
			offered += v.Offered
		}
		if launched != offered || launched != out.total().Offered || ok != out.RT.Count() || sum != out.RT.Sum() {
			t.Errorf("%s: timeline sums launched %d, ok %d, RT %v; cell offered %d (%d by VIP), ok %d, RT %v",
				c.Name, launched, ok, sum, out.total().Offered, offered, out.RT.Count(), out.RT.Sum())
		}
		if used < testbed.TimelineBins/4 {
			t.Errorf("%s: %d of %d bins of width %v used", c.Name, used, testbed.TimelineBins, out.Timeline.Width)
		}
	}
}
