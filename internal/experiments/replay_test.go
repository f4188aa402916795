package experiments

import (
	"context"
	"runtime"
	"strings"
	"testing"
	"time"

	"srlb/internal/feedback"
	"srlb/internal/testbed"
	"srlb/internal/trace"
	"srlb/internal/wiki"
)

// A feedback-enabled cluster must publish load reports whichever caller
// drives the engine. RunHorizon and the wiki/trace replay used to leave
// Feedback.Horizon at zero — no publishing ticker, zero ingests — and the
// load-aware policies silently ran as random2 there.
func TestFeedbackPlanePublishesUnderHorizon(t *testing.T) {
	cfg := horizonCfg(2000)
	cfg.Cluster.Feedback = feedback.Config{Enabled: true}
	cfg.Policy = WeightedLeastLoadPolicy()
	var tb *testbed.Testbed
	cfg.Hooks.Testbed = func(built *testbed.Testbed, _ time.Duration) { tb = built }
	if _, err := RunHorizon(context.Background(), cfg); err != nil {
		t.Fatal(err)
	}
	if got := tb.Feedback.Stats().Ingests; got == 0 {
		t.Fatal("feedback-enabled RunHorizon ingested no load reports")
	}
}

func TestFeedbackPlanePublishesUnderWikiReplay(t *testing.T) {
	cluster := ClusterConfig{Seed: 8, Servers: 4, Feedback: feedback.Config{Enabled: true}}
	top := cluster.topology(WeightedLeastLoadPolicy())
	svc := WikiService{Day: wiki.Config{Seed: 8, Compression: 28800}}
	stream := svc.Open(&top.VIPs[0], cluster.Seed, 1)
	tb, sink, err := replay(context.Background(), top, []ServiceStream{stream}, svc.Span(1), replaySettings{})
	if err != nil {
		t.Fatal(err)
	}
	if sink.Total().Counters.Offered == 0 {
		t.Fatal("replay launched nothing — test vacuous")
	}
	if got := tb.Feedback.Stats().Ingests; got == 0 {
		t.Fatal("feedback-enabled wiki replay ingested no load reports")
	}
}

// A workload without an arrival span — Lambda0 forgotten, load ≤ 0, an
// empty-span trace — used to come back as an empty cell with a nil error,
// or, for a rateless Horizon-bounded bursty service, to spin forever.
// Every kind is rejected by the engine's one check, naming the workload
// and the load; each case runs under a deadline so a hang fails the test.
func TestNoArrivalSpanPanics(t *testing.T) {
	cluster := smallCluster(1)
	ctx := context.Background()
	multi := func(svc ServiceWorkload) MultiServiceWorkload {
		return MultiServiceWorkload{Services: []ServiceSpec{
			{Workload: PoissonService{Lambda0: 80, Queries: 100}},
			{Workload: svc},
		}}
	}
	cases := []struct {
		name string
		load float64
		want string
		run  func(load float64)
	}{
		{"poisson without Lambda0", 0.5, "poisson(100q)", func(l float64) {
			PoissonWorkload{Queries: 100}.Run(ctx, cluster, RR(), l)
		}},
		{"poisson at load 0", 0, "poisson(100q)", func(l float64) {
			PoissonWorkload{Lambda0: 80, Queries: 100}.Run(ctx, cluster, RR(), l)
		}},
		{"bursty at negative load", -1, "bursty(100q", func(l float64) {
			BurstyWorkload{Lambda0: 80, Queries: 100}.Run(ctx, cluster, RR(), l)
		}},
		{"RunPoisson at rate 0", 1, "poisson(100q)", func(float64) {
			RunPoisson(cluster, RR(), 0, 100, PoissonHooks{})
		}},
		{"multi-service poisson without Lambda0", 0.5, "poisson(100q)", func(l float64) {
			multi(PoissonService{Queries: 100}).Run(ctx, cluster, RR(), l)
		}},
		{"multi-service horizon poisson without Lambda0", 0.5, "poisson(30s)", func(l float64) {
			multi(PoissonService{Horizon: 30 * time.Second}).Run(ctx, cluster, RR(), l)
		}},
		{"multi-service horizon bursty without Lambda0", 0.5, "bursty(30s", func(l float64) {
			multi(BurstyService{Horizon: 30 * time.Second}).Run(ctx, cluster, RR(), l)
		}},
		{"multi-service wiki at load 0", 0, "wiki-day", func(l float64) {
			w := multi(WikiService{Day: wiki.Config{Compression: 28800}})
			w.ServiceLoads = []ServiceLoad{{Fixed: 0.5}, {}}
			w.Run(ctx, cluster, RR(), l)
		}},
		{"trace ending at t=0", 1, "wiki-trace(1 entries)", func(l float64) {
			TraceWorkload{Entries: []trace.Entry{{URL: "/wiki/A"}}}.Run(ctx, cluster, RR(), l)
		}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			panicked := make(chan string, 1)
			go func() {
				defer func() {
					msg, _ := recover().(string)
					panicked <- msg
				}()
				tc.run(tc.load)
			}()
			select {
			case msg := <-panicked:
				if !strings.Contains(msg, tc.want) || !strings.Contains(msg, "no arrival span") {
					t.Errorf("panic %q does not name %q and the missing span", msg, tc.want)
				}
			case <-time.After(10 * time.Second):
				t.Fatal("still running after 10s: the missing span was not rejected")
			}
		})
	}
}

// The one pump costs the same whether a service is replayed as the
// cluster's only VIP or as one service of a MultiServiceWorkload: the
// in-tree guard for the benchmark's 1% allocs_per_op bound. (The
// multi-service path used to schedule a fresh closure per query.)
func TestPumpAllocationParity(t *testing.T) {
	const queries = 20000
	cluster := ClusterConfig{Seed: 5, Servers: 4}
	mallocs := func(w Workload) float64 {
		var before, after runtime.MemStats
		runtime.GC()
		runtime.ReadMemStats(&before)
		if _, err := w.Run(context.Background(), cluster, SRc(4), 0.8); err != nil {
			t.Fatal(err)
		}
		runtime.ReadMemStats(&after)
		return float64(after.Mallocs-before.Mallocs) / queries
	}
	single := mallocs(PoissonWorkload{Lambda0: 80, Queries: queries})
	multi := mallocs(MultiServiceWorkload{Services: []ServiceSpec{
		{Workload: PoissonService{Lambda0: 80, Queries: queries}},
	}})
	t.Logf("mallocs/query: single-VIP %.2f, one-service multi %.2f", single, multi)
	if d := multi - single; d > 0.25 || d < -0.25 {
		t.Fatalf("pump cost differs by %.2f mallocs/query between the single-VIP and multi-service paths", d)
	}
}
