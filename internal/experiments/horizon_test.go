package experiments

import (
	"context"
	"os"
	"runtime"
	"testing"
	"time"

	"srlb/internal/sketch"
	"srlb/internal/stats"
	"srlb/internal/testbed"
)

// horizonCluster is a small, fast cluster for the soak tests; Lambda0 is
// pinned to its fluid capacity so no calibration run is needed.
func horizonCfg(queries uint64) HorizonConfig {
	cluster := ClusterConfig{Seed: 42, Servers: 4}
	return HorizonConfig{
		Cluster: cluster,
		Queries: queries,
		Rho:     0.7,
		Lambda0: cluster.TheoreticalCapacity(),
	}
}

// soak is RunHorizon with a heap sample every 2¹⁶ completions besides
// its own every 2²⁰ launches, which would sample a run shorter than
// 2²⁰ queries only at its start and end; PeakHeap is the larger peak.
func soak(t *testing.T, queries uint64) HorizonResult {
	var peak uint64
	var ms runtime.MemStats
	completed := 0
	res, err := runHorizon(context.Background(), horizonCfg(queries), PoissonHooks{OnResult: func(testbed.Result) {
		if completed++; completed%(1<<16) == 0 {
			runtime.ReadMemStats(&ms)
			peak = max(peak, ms.HeapAlloc)
		}
	}})
	if err != nil {
		t.Fatal(err)
	}
	res.PeakHeap = max(res.PeakHeap, peak)
	return res
}

// The constant-memory claim: pushing the horizon 5x further must not
// move the peak live heap beyond GC jitter. Every per-query object —
// timers, packets, wire buffers, pending-query records — recycles, and
// the measurement lives in fixed-size sketches.
func TestHorizonConstantMemory(t *testing.T) {
	if testing.Short() {
		t.Skip("multi-run soak")
	}
	small, large := soak(t, 200_000), soak(t, 1_000_000)
	t.Logf("peak heap: %d queries -> %.1f MB, %d queries -> %.1f MB (%.0f q/s)",
		small.Queries, float64(small.PeakHeap)/(1<<20),
		large.Queries, float64(large.PeakHeap)/(1<<20), large.QPS())
	// The live set is the cluster plus sketches plus freelists — a few
	// MB. Allow 2x for GC pacing noise plus a small constant; growth
	// proportional to the 5x query ratio would blow far past this.
	if large.PeakHeap > 2*small.PeakHeap+8<<20 {
		t.Fatalf("peak heap grew with query count: %d B at %d queries vs %d B at %d",
			large.PeakHeap, large.Queries, small.PeakHeap, small.Queries)
	}
	if large.Counters.Offered != large.Queries {
		t.Fatalf("offered %d != queries %d", large.Counters.Offered, large.Queries)
	}
	sum := large.Counters.OK + large.Counters.Refused + large.Counters.Unfinished
	if sum != large.Counters.Offered {
		t.Fatalf("conservation: %d outcomes for %d offered", sum, large.Counters.Offered)
	}
}

// The acceptance reference cell: on a 10⁶-query run, the sketch's
// quantiles must match exact order statistics (collected side-by-side
// through the OnResult hook) within the histogram's documented relative
// error, and count/mean/max must be exact.
func TestHorizonSketchMatchesExact(t *testing.T) {
	if testing.Short() {
		t.Skip("10⁶-query reference cell")
	}
	exact := make([]float64, 0, 1<<20) // ns
	var sum, max time.Duration
	res, err := runHorizon(context.Background(), horizonCfg(1_000_000), PoissonHooks{OnResult: func(res testbed.Result) {
		if res.OK {
			exact = append(exact, float64(res.RT))
			sum += res.RT
			if res.RT > max {
				max = res.RT
			}
		}
	}})
	if err != nil {
		t.Fatal(err)
	}
	if res.RT.Count() != len(exact) {
		t.Fatalf("sketch count %d != exact %d", res.RT.Count(), len(exact))
	}
	if res.RT.Max() != max {
		t.Fatalf("sketch max %v != exact %v", res.RT.Max(), max)
	}
	if got, want := res.RT.Mean(), sum/time.Duration(len(exact)); got != want {
		t.Fatalf("sketch mean %v != exact %v", got, want)
	}
	bound := sketch.MaxRelativeError(sketch.DefaultPrecision)
	for _, p := range []float64{0.5, 0.9, 0.99, 0.999} {
		got, want := res.RT.Quantile(p), time.Duration(stats.Percentile(exact, p))
		if want == 0 {
			continue
		}
		rel := float64(got-want) / float64(want)
		if rel < 0 {
			rel = -rel
		}
		if rel > bound {
			t.Errorf("p%.3f: sketch %v vs exact %v (rel err %.5f > bound %.5f)",
				p, got, want, rel, bound)
		}
	}
}

// The full 10⁸-query soak of the issue's acceptance criterion — minutes
// of host time, so gated behind SRLB_HORIZON_FULL=1. Compares peak heap
// against a 10⁶-query run.
func TestHorizonFull(t *testing.T) {
	if os.Getenv("SRLB_HORIZON_FULL") == "" {
		t.Skip("set SRLB_HORIZON_FULL=1 to run the 10⁸-query soak")
	}
	ref, err := RunHorizon(context.Background(), horizonCfg(1_000_000))
	if err != nil {
		t.Fatal(err)
	}
	cfg := horizonCfg(100_000_000)
	cfg.Progress = func(done, total uint64) {
		t.Logf("%d/%d queries", done, total)
	}
	start := time.Now()
	full, err := RunHorizon(context.Background(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	t.Logf("10⁸ queries in %v (%.0f q/s), peak heap %.1f MB (ref %.1f MB)",
		time.Since(start).Round(time.Second), full.QPS(),
		float64(full.PeakHeap)/(1<<20), float64(ref.PeakHeap)/(1<<20))
	if full.Counters.Offered != full.Queries {
		t.Fatalf("offered %d != queries %d", full.Counters.Offered, full.Queries)
	}
	if full.PeakHeap > 2*ref.PeakHeap+8<<20 {
		t.Fatalf("peak heap not constant: %d B at 10⁸ vs %d B at 10⁶",
			full.PeakHeap, ref.PeakHeap)
	}
}
