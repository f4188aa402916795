package testbed

import (
	"testing"
	"time"

	"srlb/internal/rng"
)

// runSink replays the same workload as run() but through a SketchSink
// alone, with no per-query callback.
func runSink(t testing.TB, cfg Topology, n int, ratePerSec float64, meanDemand time.Duration) (*Testbed, *SketchSink) {
	t.Helper()
	tb := Build(cfg)
	sink := NewSketchSink()
	tb.Gen.Sink = sink
	r := rng.Split(cfg.Seed, 99)
	p := rng.NewPoisson(r, ratePerSec, 0)
	for i := 0; i < n; i++ {
		at := p.Next()
		q := Query{ID: uint64(i), Demand: rng.Exp(r, meanDemand)}
		tb.Sim.At(at, func() { tb.Gen.Launch(q) })
	}
	tb.Sim.Run()
	tb.Gen.DrainPending()
	return tb, sink
}

// Sink mode keeps nothing per query (the generator has no results
// slice), and the sink's accounting balances exactly.
func TestSinkModeRetainsNoResults(t *testing.T) {
	const n = 3000
	_, sink := runSink(t, Topology{Seed: 1, Pools: []PoolSpec{{Servers: 4}}}, n, 200, 20*time.Millisecond)
	total := sink.Total()
	if total.Counters.Offered != n {
		t.Fatalf("offered = %d, want %d", total.Counters.Offered, n)
	}
	sum := total.Counters.OK + total.Counters.Refused + total.Counters.Unfinished
	if sum != total.Counters.Offered {
		t.Fatalf("conservation: OK+Refused+Unfinished = %d, offered = %d", sum, total.Counters.Offered)
	}
	if int(total.Counters.OK) != total.RT.Count() {
		t.Fatalf("OK counter %d != RT count %d", total.Counters.OK, total.RT.Count())
	}
}

// The sink must observe the identical outcome stream OnResult sees: same
// per-outcome counts, same mean, same max.
func TestSinkMatchesRetainedResults(t *testing.T) {
	const n = 2000
	cfg := Topology{Seed: 7, Pools: []PoolSpec{{Servers: 4}}}
	retained := run(t, cfg, n, 200, 20*time.Millisecond)
	_, sink := runSink(t, cfg, n, 200, 20*time.Millisecond)

	var ok, refused int
	var sum, max time.Duration
	for _, r := range retained.results {
		switch {
		case r.OK:
			ok++
			sum += r.RT
			if r.RT > max {
				max = r.RT
			}
		case r.Refused:
			refused++
		}
	}
	total := sink.Total()
	if int(total.Counters.OK) != ok || int(total.Counters.Refused) != refused {
		t.Fatalf("sink counts OK=%d refused=%d, retained OK=%d refused=%d",
			total.Counters.OK, total.Counters.Refused, ok, refused)
	}
	if ok > 0 {
		wantMean := sum / time.Duration(ok)
		if got := total.RT.Mean(); got != wantMean {
			t.Fatalf("sink mean %v != exact mean %v", got, wantMean)
		}
		if got := total.RT.Max(); got != max {
			t.Fatalf("sink max %v != exact max %v", got, max)
		}
	}
}

// The sink's memory is fixed by the histogram's value range, not the
// query count: quadrupling the workload must not grow the bucket table
// beyond what the (slightly wider) observed value range accounts for.
func TestSinkMemoryIndependentOfQueryCount(t *testing.T) {
	if testing.Short() {
		t.Skip("multi-run memory comparison")
	}
	_, small := runSink(t, Topology{Seed: 3, Pools: []PoolSpec{{Servers: 4}}}, 1000, 200, 20*time.Millisecond)
	_, large := runSink(t, Topology{Seed: 3, Pools: []PoolSpec{{Servers: 4}}}, 4000, 200, 20*time.Millisecond)
	sb, lb := small.Total().RT.Buckets(), large.Total().RT.Buckets()
	// Bucket count grows logarithmically with the max observed value and
	// is hard-capped by the 64-bit range; 4x the queries must stay within
	// a couple of log-linear segments of the smaller run.
	if lb > sb+1024 {
		t.Fatalf("bucket table grew with query count: %d -> %d", sb, lb)
	}
}

// Per-VIP demultiplexing: every outcome lands on its own VIP's sketch and
// the per-VIP columns sum to the total.
func TestSinkPerVIPDemux(t *testing.T) {
	const n = 400
	tb := Build(Topology{
		Seed:  5,
		Pools: []PoolSpec{{Servers: 3}, {Servers: 2}},
		VIPs:  []VIPSpec{{}, {Pool: 1}},
	})
	sink := NewSketchSink(tb.VIPAddrOf(0), tb.VIPAddrOf(1))
	tb.Gen.Sink = sink
	for i := 0; i < n; i++ {
		q := Query{ID: uint64(i), Demand: 5 * time.Millisecond}
		if i%2 == 1 {
			q.VIP = tb.VIPAddrOf(1)
		}
		tb.Sim.At(time.Duration(i)*time.Millisecond, func() { tb.Gen.Launch(q) })
	}
	tb.Sim.Run()
	tb.Gen.DrainPending()

	vips := sink.VIPs()
	if len(vips) != 2 {
		t.Fatalf("registered VIPs = %d, want 2", len(vips))
	}
	if vips[0].VIP != tb.VIPAddrOf(0) || vips[1].VIP != tb.VIPAddrOf(1) {
		t.Fatal("pre-registration order not preserved")
	}
	var offered, okSum uint64
	for _, v := range vips {
		if v.Counters.Offered != n/2 {
			t.Fatalf("VIP %v offered %d, want %d", v.VIP, v.Counters.Offered, n/2)
		}
		offered += v.Counters.Offered
		okSum += v.Counters.OK
	}
	total := sink.Total()
	if offered != total.Counters.Offered || okSum != total.Counters.OK {
		t.Fatalf("per-VIP columns (offered %d, ok %d) do not sum to total (%d, %d)",
			offered, okSum, total.Counters.Offered, total.Counters.OK)
	}
	// Merging the per-VIP sketches must reproduce the total exactly.
	merged := vips[0].RT.Clone()
	merged.Merge(vips[1].RT)
	if !merged.Equal(total.RT) {
		t.Fatal("merged per-VIP sketches differ from the total sketch")
	}
}
