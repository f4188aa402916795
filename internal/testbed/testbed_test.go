package testbed

import (
	"fmt"
	"math"
	"net/netip"
	"reflect"
	"testing"
	"time"

	"srlb/internal/agent"
	"srlb/internal/appserver"
	"srlb/internal/rng"
	"srlb/internal/selection"

	"math/rand/v2"
)

// run launches n queries of the given demand at the given rate against a
// testbed and returns it with all results collected.
func run(t testing.TB, cfg Topology, n int, ratePerSec float64, meanDemand time.Duration) *Testbed {
	t.Helper()
	tb := Build(cfg)
	tb.Gen.RetainResults = true
	r := rng.Split(cfg.Seed, 99)
	p := rng.NewPoisson(r, ratePerSec, 0)
	for i := 0; i < n; i++ {
		at := p.Next()
		q := Query{ID: uint64(i), Demand: rng.Exp(r, meanDemand)}
		tb.Sim.At(at, func() { tb.Gen.Launch(q) })
	}
	tb.Sim.Run()
	tb.Gen.DrainPending()
	return tb
}

func TestEveryQueryServedExactlyOnce(t *testing.T) {
	const n = 2000
	tb := run(t, Topology{Seed: 1, VIPs: []VIPSpec{{Servers: 4}}}, n, 200, 20*time.Millisecond)
	results := tb.Gen.Results()
	if len(results) != n {
		t.Fatalf("results = %d, want %d", len(results), n)
	}
	seen := make(map[uint64]bool, n)
	okCount := 0
	for _, r := range results {
		if seen[r.ID] {
			t.Fatalf("query %d finished twice", r.ID)
		}
		seen[r.ID] = true
		if r.OK {
			okCount++
		}
	}
	if okCount != n {
		t.Fatalf("only %d/%d queries succeeded at light load", okCount, n)
	}
	// Conservation at the servers: sum of completions == n.
	var completed uint64
	for _, s := range tb.Servers {
		completed += s.Stats().Completed
	}
	if completed != n {
		t.Fatalf("servers completed %d, want %d", completed, n)
	}
}

func TestServiceHuntingProtocolCounters(t *testing.T) {
	// With a never-accept policy every SYN is refused by the first
	// candidate and force-accepted by the second.
	cfg := Topology{Seed: 2, VIPs: []VIPSpec{{
		Servers: 4,
		Policy:  func(int) agent.Policy { return agent.Never{} },
	}}}
	const n = 500
	tb := run(t, cfg, n, 100, 10*time.Millisecond)

	var offers, refusals, forced, firstAccepts uint64
	for _, rt := range tb.Routers {
		offers += rt.Counts.Get("hunt_offers")
		refusals += rt.Counts.Get("hunt_refusals")
		forced += rt.Counts.Get("forced_accepts")
		firstAccepts += rt.Counts.Get("hunt_accepts")
	}
	if offers != n || refusals != n || forced != n || firstAccepts != 0 {
		t.Fatalf("offers=%d refusals=%d forced=%d firstAccepts=%d, want %d/%d/%d/0",
			offers, refusals, forced, firstAccepts, n, n, n)
	}
	if got := tb.LB.Counts.Get("hunts_started"); got != n {
		t.Fatalf("hunts_started = %d", got)
	}
	if got := tb.LB.Counts.Get("flows_learned"); got != n {
		t.Fatalf("flows_learned = %d", got)
	}
}

func TestAlwaysPolicyFirstCandidateWins(t *testing.T) {
	cfg := Topology{Seed: 3, VIPs: []VIPSpec{{
		Servers: 4,
		Policy:  func(int) agent.Policy { return agent.Always{} },
	}}}
	const n = 500
	tb := run(t, cfg, n, 100, 10*time.Millisecond)
	var forced, firstAccepts uint64
	for _, rt := range tb.Routers {
		forced += rt.Counts.Get("forced_accepts")
		firstAccepts += rt.Counts.Get("hunt_accepts")
	}
	if firstAccepts != n || forced != 0 {
		t.Fatalf("firstAccepts=%d forced=%d, want %d/0", firstAccepts, forced, n)
	}
}

// TestFlowAffinity: every packet of a flow must reach the server that
// accepted it. The vrouter counts "no_conn" when a steered packet arrives
// for a connection it does not own.
func TestFlowAffinity(t *testing.T) {
	cfg := Topology{Seed: 4, VIPs: []VIPSpec{{Servers: 8,
		Policy: func(int) agent.Policy { return agent.NewStatic(4) }}}}
	tb := run(t, cfg, 3000, 300, 15*time.Millisecond)
	for i, rt := range tb.Routers {
		if got := rt.Counts.Get("no_conn"); got != 0 {
			t.Fatalf("server %d received %d packets for flows it does not own", i, got)
		}
		if got := rt.Counts.Get("not_local"); got != 0 {
			t.Fatalf("server %d received %d packets for foreign VIPs", i, got)
		}
	}
	// Every request payload must reach its accepting server: responses are
	// held until the request lands, so requests_rx is exact.
	var requests uint64
	for _, rt := range tb.Routers {
		requests += rt.Counts.Get("requests_rx")
	}
	if requests != 3000 {
		t.Fatalf("requests_rx = %d, want 3000", requests)
	}
}

func TestSRcExtremesEquivalentToRandom(t *testing.T) {
	// c=0: second candidate always serves; c=n+1: first always serves.
	// Both must succeed for all queries and spread load over all servers.
	for _, c := range []int{0, 33} {
		c := c
		t.Run(fmt.Sprintf("c=%d", c), func(t *testing.T) {
			cfg := Topology{Seed: 5, VIPs: []VIPSpec{{Servers: 6,
				Policy: func(int) agent.Policy { return agent.NewStatic(c) }}}}
			tb := run(t, cfg, 1200, 150, 10*time.Millisecond)
			ok := 0
			for _, r := range tb.Gen.Results() {
				if r.OK {
					ok++
				}
			}
			if ok != 1200 {
				t.Fatalf("ok = %d", ok)
			}
			for i, s := range tb.Servers {
				if s.Stats().Completed == 0 {
					t.Fatalf("server %d served nothing", i)
				}
			}
		})
	}
}

func TestOverloadProducesRSTs(t *testing.T) {
	// Tiny cluster, huge offered load, small backlog: some queries must be
	// refused with RST, and the client must observe them as Refused.
	cfg := Topology{Seed: 6, VIPs: []VIPSpec{{
		Servers: 2,
		Server:  appserver.Config{Workers: 4, Cores: 1, Backlog: 4, AbortOnOverflow: true},
	}}}
	tb := run(t, cfg, 2000, 2000, 50*time.Millisecond)
	refused := 0
	for _, r := range tb.Gen.Results() {
		if r.Refused {
			refused++
		}
	}
	if refused == 0 {
		t.Fatal("expected RST-refused queries under overload")
	}
	var rsts uint64
	for _, rt := range tb.Routers {
		rsts += rt.Counts.Get("rst_overflow")
	}
	if rsts == 0 {
		t.Fatal("servers never RSTed")
	}
	if got := int(rsts); got != refused {
		t.Fatalf("server RSTs %d != client refused %d", got, refused)
	}
}

func TestResponseTimesReflectProcessorSharing(t *testing.T) {
	// At very light load every query should take ≈ its demand (plus tiny
	// network overhead).
	cfg := Topology{Seed: 7, VIPs: []VIPSpec{{Servers: 12}}}
	tb := run(t, cfg, 200, 5, 100*time.Millisecond)
	for _, r := range tb.Gen.Results() {
		if !r.OK {
			t.Fatal("query failed at light load")
		}
	}
	// Mean RT should be close to the mean demand (100ms) — within 15%.
	var sum time.Duration
	for _, r := range tb.Gen.Results() {
		sum += r.RT
	}
	mean := sum / time.Duration(len(tb.Gen.Results()))
	if mean < 85*time.Millisecond || mean > 130*time.Millisecond {
		t.Fatalf("light-load mean RT = %v, want ≈100ms", mean)
	}
}

func TestDeterministicResults(t *testing.T) {
	digest := func() string {
		cfg := Topology{Seed: 42, VIPs: []VIPSpec{{Servers: 6,
			Policy: func(int) agent.Policy { return agent.NewStatic(8) }}}}
		tb := run(t, cfg, 800, 200, 20*time.Millisecond)
		var sum time.Duration
		var ids uint64
		for _, r := range tb.Gen.Results() {
			sum += r.RT
			ids += r.ID
		}
		return fmt.Sprintf("%d/%d/%d", len(tb.Gen.Results()), sum, ids)
	}
	a, b := digest(), digest()
	if a != b {
		t.Fatalf("same seed diverged: %s vs %s", a, b)
	}
}

func TestPowerOfTwoBeatsRandomUnderLoad(t *testing.T) {
	// The paper's headline claim (fig 2): SRc with a sensible c beats
	// random assignment at high load. ρ≈0.85 of a 4-server cluster:
	// capacity = 4 servers × 2 cores / 0.1s = 80 q/s; run at 68 q/s.
	meanRT := func(policy func(int) agent.Policy, scheme func([]netip.Addr, *rand.Rand) selection.Scheme) time.Duration {
		cfg := Topology{Seed: 8, VIPs: []VIPSpec{{Servers: 4, Policy: policy, Scheme: scheme}}}
		tb := run(t, cfg, 4000, 68, 100*time.Millisecond)
		var sum time.Duration
		n := 0
		for _, r := range tb.Gen.Results() {
			if r.OK {
				sum += r.RT
				n++
			}
		}
		if n < 3800 {
			t.Fatalf("too many failures: %d ok", n)
		}
		return sum / time.Duration(n)
	}
	rrRT := meanRT(
		func(int) agent.Policy { return agent.Always{} },
		func(s []netip.Addr, r *rand.Rand) selection.Scheme { return selection.NewRandom(s, 1, r) },
	)
	srRT := meanRT(
		func(int) agent.Policy { return agent.NewStatic(4) },
		nil, // default: 2 random candidates
	)
	if srRT >= rrRT {
		t.Fatalf("SR4 (%v) not better than RR (%v) at high load", srRT, rrRT)
	}
	improvement := float64(rrRT) / float64(srRT)
	t.Logf("RR=%v SR4=%v improvement=%.2fx", rrRT, srRT, improvement)
	if improvement < 1.2 {
		t.Fatalf("improvement %.2fx too small to be the power of choices", improvement)
	}
}

func TestPayloadCodec(t *testing.T) {
	q := Query{Demand: 123 * time.Millisecond, URL: "/wiki/index.php?title=X"}
	d, url := DecodePayload(EncodePayload(q))
	if d != q.Demand || url != q.URL {
		t.Fatalf("decode = %v %q", d, url)
	}
	if d, url := DecodePayload(nil); d != 0 || url != "" {
		t.Fatal("short payload should decode to zero")
	}
}

func TestAddressHelpers(t *testing.T) {
	if ServerAddr(0) == ServerAddr(1) {
		t.Fatal("server addresses collide")
	}
	if ClientAddr(0) == ClientAddr(1) {
		t.Fatal("client addresses collide")
	}
	a := ServerAddr(11)
	if !a.IsValid() {
		t.Fatal("invalid server address")
	}
}

func TestSampleLoads(t *testing.T) {
	tb := Build(Topology{Seed: 9, VIPs: []VIPSpec{{Servers: 3}}})
	var samples int
	var lastLen int
	tb.SampleLoads(100*time.Millisecond, time.Second, func(now time.Duration, busy []int) {
		samples++
		lastLen = len(busy)
	})
	tb.Sim.Run()
	if samples != 10 {
		t.Fatalf("samples = %d, want 10", samples)
	}
	if lastLen != 3 {
		t.Fatalf("busy vector len = %d", lastLen)
	}
}

func TestFairnessImprovesWithSR(t *testing.T) {
	// Jain fairness of cumulative per-server service counts: SR4 should
	// spread at least as evenly as single-random at high load.
	counts := func(policy func(int) agent.Policy, k int) []float64 {
		cfg := Topology{Seed: 10, VIPs: []VIPSpec{{Servers: 6,
			Policy: policy,
			Scheme: func(s []netip.Addr, r *rand.Rand) selection.Scheme {
				return selection.NewRandom(s, k, r)
			}}}}
		tb := run(t, cfg, 3000, 100, 100*time.Millisecond)
		out := make([]float64, len(tb.Servers))
		for i, s := range tb.Servers {
			out[i] = float64(s.Stats().CPUTime)
		}
		return out
	}
	jain := func(xs []float64) float64 {
		var sum, sq float64
		for _, x := range xs {
			sum += x
			sq += x * x
		}
		return sum * sum / (float64(len(xs)) * sq)
	}
	rr := jain(counts(func(int) agent.Policy { return agent.Always{} }, 1))
	sr := jain(counts(func(int) agent.Policy { return agent.NewStatic(4) }, 2))
	t.Logf("fairness rr=%.4f sr=%.4f", rr, sr)
	if sr < rr-0.02 {
		t.Fatalf("SR fairness %.4f worse than RR %.4f", sr, rr)
	}
}

func TestGeneratorPortWrapAvoidsPendingCollision(t *testing.T) {
	tb := Build(Topology{Seed: 11, Clients: 1, VIPs: []VIPSpec{{Servers: 2}}})
	tb.Gen.RetainResults = true
	// Exhaust a chunk of port space quickly with tiny demands.
	r := rng.New(1)
	for i := 0; i < 5000; i++ {
		q := Query{ID: uint64(i), Demand: rng.Exp(r, time.Millisecond)}
		at := time.Duration(i) * 100 * time.Microsecond
		tb.Sim.At(at, func() { tb.Gen.Launch(q) })
	}
	tb.Sim.Run()
	if tb.Gen.Pending() != 0 {
		t.Fatalf("pending = %d at end", tb.Gen.Pending())
	}
	if len(tb.Gen.Results()) != 5000 {
		t.Fatalf("results = %d", len(tb.Gen.Results()))
	}
}

// TestLaunchSkipsEveryPendingPort: when the port counter wraps onto a run
// of ports whose queries are still pending, the new query takes the first
// free port behind them and none of the older ones is displaced — every
// launched query is still there for DrainPending to report.
func TestLaunchSkipsEveryPendingPort(t *testing.T) {
	tb := Build(Topology{Seed: 11, Clients: 1, VIPs: []VIPSpec{{Servers: 2}}})
	tb.Gen.RetainResults = true
	tb.Gen.Launch(Query{ID: 0})
	tb.Gen.Launch(Query{ID: 1})
	tb.Gen.nextPort[0] -= 2 // a wrap back onto the two pending ports
	tb.Gen.Launch(Query{ID: 2})
	if tb.Gen.Pending() != 3 {
		t.Fatalf("pending = %d after three launches, want 3", tb.Gen.Pending())
	}
	ports := map[uint16]uint64{}
	for flow, pq := range tb.Gen.pending {
		ports[flow.SrcPort] = pq.q.ID
	}
	first := uint16(1024%64512 + 1024)
	if want := map[uint16]uint64{first: 0, first + 1: 1, first + 2: 2}; !reflect.DeepEqual(ports, want) {
		t.Fatalf("pending ports → query IDs = %v, want %v", ports, want)
	}
	if n := tb.Gen.DrainPending(); n != 3 || len(tb.Gen.Results()) != 3 {
		t.Fatalf("drained %d, %d results, want 3 and 3", n, len(tb.Gen.Results()))
	}
}

func TestUtilizationBounded(t *testing.T) {
	tb := run(t, Topology{Seed: 12, VIPs: []VIPSpec{{Servers: 3}}}, 2000, 500, 20*time.Millisecond)
	for i, s := range tb.Servers {
		u := s.Utilization(0)
		if u > 1.0001 {
			t.Fatalf("server %d utilization %v exceeds capacity", i, u)
		}
	}
	_ = math.Pi // keep math import for the tolerance helpers above
}
