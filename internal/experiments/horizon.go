package experiments

import (
	"context"
	"fmt"
	"runtime"
	"time"

	"srlb/internal/sketch"
	"srlb/internal/testbed"
)

// HorizonConfig drives a single very long open-loop cell — the
// constant-memory soak that the streaming-metrics path exists for.
// Default: 10⁸ Poisson queries at ρ = 0.85 through the paper's cluster
// under the paper's SR4, measured entirely through sketches, so the heap
// stays flat no matter how far the horizon is pushed.
type HorizonConfig struct {
	Cluster ClusterConfig
	// Queries is the horizon length (default 1e8).
	Queries uint64
	// Rho is the normalized load (default 0.85).
	Rho float64
	// Lambda0 converts Rho to an absolute rate (0 ⇒ calibrated first).
	Lambda0 float64
	// Progress, when set, is called at every heap sample.
	Progress func(done, total uint64)
}

// horizonSampleEvery is the number of queries between heap samples.
// Sampling reads runtime.MemStats, so it stays coarse on long runs.
const horizonSampleEvery = 1 << 20

// HorizonResult is the outcome of a horizon run: streaming aggregates
// only — nothing in it grows with the query count.
type HorizonResult struct {
	Queries uint64
	Rho     float64
	Lambda0 float64
	Policy  string
	// RT sketches the response times of completed queries; Counters is
	// the accounting.
	RT       *sketch.Histogram
	Counters sketch.Counters
	// PeakHeap is the largest live-heap sample (runtime.MemStats
	// HeapAlloc) observed during the run — the constant-memory claim.
	PeakHeap uint64
	// Events is the number of DES events executed; SimTime the simulated
	// span; Wall the host time the run took.
	Events  uint64
	SimTime time.Duration
	Wall    time.Duration
}

// QPS returns the host-side event throughput in queries per wall second.
func (r HorizonResult) QPS() float64 {
	if r.Wall <= 0 {
		return 0
	}
	return float64(r.Queries) / r.Wall.Seconds()
}

func (c HorizonConfig) withDefaults() HorizonConfig {
	c.Cluster = c.Cluster.withDefaults()
	if c.Queries == 0 {
		c.Queries = 100_000_000
	}
	if c.Rho == 0 {
		c.Rho = 0.85
	}
	return c
}

// RunHorizon executes the soak: the cell OneService(PoissonService) runs,
// with a heap sample every horizonSampleEvery launches and query counts
// wide enough for 10⁸ and beyond. The engine holds one future arrival and the
// sink is sketches, so nothing grows with the horizon. ctx cancels
// mid-run; the result then holds the partial measurement.
func RunHorizon(ctx context.Context, cfg HorizonConfig) (HorizonResult, error) {
	return runHorizon(ctx, cfg, PoissonHooks{})
}

// runHorizon is RunHorizon with observers (nil-safe), so tests can hold
// the sketch to exact accounting and inspect the testbed.
func runHorizon(ctx context.Context, cfg HorizonConfig, hooks PoissonHooks) (HorizonResult, error) {
	cfg = cfg.withDefaults()
	cfg.Lambda0 = cfg.Cluster.lambda0(cfg.Lambda0)

	var peak uint64
	var ms runtime.MemStats
	sample := func(done uint64) {
		runtime.ReadMemStats(&ms)
		if ms.HeapAlloc > peak {
			peak = ms.HeapAlloc
		}
		if cfg.Progress != nil {
			cfg.Progress(done, cfg.Queries)
		}
	}
	svc := sampledPoisson{
		PoissonService: PoissonService{Lambda0: cfg.Lambda0, Queries: int(cfg.Queries)},
		sample:         sample,
	}
	// The testbed is kept for its event count and simulated span.
	var tb *testbed.Testbed
	observe := hooks.Testbed
	hooks.Testbed = func(built *testbed.Testbed, horizon time.Duration) {
		tb = built
		if observe != nil {
			observe(built, horizon)
		}
	}
	start := time.Now()
	sample(0)
	policy := SRc(4)
	out, err := OneService(svc).run(ctx, cfg.Cluster, policy, cfg.Rho, hooks)
	vip := out.PerVIP[0]
	counters := sketch.Counters{
		Offered:    uint64(vip.Offered),
		OK:         uint64(vip.RT.Count()),
		Refused:    uint64(vip.Refused),
		Unfinished: uint64(vip.Unfinished),
	}
	sample(counters.Offered)

	return HorizonResult{
		Queries:  cfg.Queries,
		Rho:      cfg.Rho,
		Lambda0:  cfg.Lambda0,
		Policy:   policy.Name,
		RT:       out.RT,
		Counters: counters,
		PeakHeap: peak,
		Events:   tb.Sim.Processed(),
		SimTime:  tb.Sim.Now(),
		Wall:     time.Since(start),
	}, err
}

// sampledPoisson is the soak's service: a PoissonService whose stream
// calls sample every horizonSampleEvery launches.
type sampledPoisson struct {
	PoissonService
	sample func(done uint64)
}

func (s sampledPoisson) Open(spec *testbed.VIPSpec, seed uint64, load float64) ServiceStream {
	return &sampledStream{ServiceStream: s.PoissonService.Open(spec, seed, load), sample: s.sample}
}

// sampledStream calls sample every horizonSampleEvery launches. The
// engine asks for arrival n right after launching arrival n−1, so the
// number of Next calls so far is the number of queries launched.
type sampledStream struct {
	ServiceStream
	launched uint64
	sample   func(done uint64)
}

func (s *sampledStream) Next() (time.Duration, testbed.Query, bool) {
	if s.launched > 0 && s.launched%horizonSampleEvery == 0 {
		s.sample(s.launched)
	}
	s.launched++
	return s.ServiceStream.Next()
}

// Summary is the run human-readably, one key/value stat per line.
func (r HorizonResult) Summary() string {
	okFrac := 0.0
	if r.Counters.Offered > 0 {
		okFrac = float64(r.Counters.OK) / float64(r.Counters.Offered)
	}
	return fmt.Sprintf("queries\t%d\npolicy\t%s\nrho\t%.2f\nlambda0\t%.1f\n"+
		"ok\t%d (%.4f)\nrefused\t%d\nunfinished\t%d\n"+
		"mean_ms\t%.3f\np50_ms\t%.3f\np99_ms\t%.3f\nmax_ms\t%.3f\n"+
		"peak_heap_mb\t%.1f\nevents\t%d\nsim_time\t%s\nwall\t%s\nqps\t%.0f\n",
		r.Queries, r.Policy, r.Rho, r.Lambda0,
		r.Counters.OK, okFrac, r.Counters.Refused, r.Counters.Unfinished,
		durMS(r.RT.Mean()), durMS(r.RT.Median()), durMS(r.RT.Quantile(0.99)), durMS(r.RT.Max()),
		float64(r.PeakHeap)/(1<<20), r.Events, r.SimTime.Round(time.Millisecond), r.Wall.Round(time.Millisecond),
		r.QPS())
}

func durMS(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }
