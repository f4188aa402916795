package testbed

import (
	"maps"
	"math"
	"math/rand/v2"
	"net/netip"
	"slices"
	"strings"
	"testing"
	"time"

	"srlb/internal/feedback"
	"srlb/internal/selection"
)

// failServer is a fail-stop event for server i of pool at fraction frac
// of the span.
func failServer(frac float64, pool, i int) Event {
	return Event{Frac: frac, Kind: EventServerFail, Pool: pool, Server: i}
}

// chashScheme/chashFallback build the §II-B consistent-hash selection —
// what lets stateless LB replicas agree on flow→server without talking.
func chashScheme(t testing.TB) SchemeFn {
	return func(servers []netip.Addr, _ *rand.Rand, _ *feedback.VIPView) selection.Scheme {
		s, err := selection.NewConsistentHash(servers, 4099)
		if err != nil {
			t.Fatal(err)
		}
		return s
	}
}

func chashFallback(t testing.TB) FallbackFn {
	return func(servers []netip.Addr) selection.Scheme {
		s, err := selection.NewConsistentHash(servers, 4099)
		if err != nil {
			t.Fatal(err)
		}
		return s
	}
}

// launchEvery schedules n fixed-demand queries at a fixed spacing, runs
// the simulation to completion and returns every Result.
func launchEvery(tb *Testbed, n int, spacing, demand time.Duration) []Result {
	results := collect(tb)
	for i := 0; i < n; i++ {
		q := Query{ID: uint64(i), Demand: demand}
		tb.Sim.At(time.Duration(i)*spacing, func() { tb.Gen.Launch(q) })
	}
	tb.Sim.Run()
	tb.Gen.DrainPending()
	return *results
}

func okCount(results []Result) int {
	ok := 0
	for _, r := range results {
		if r.OK {
			ok++
		}
	}
	return ok
}

// Promoted from the hand-wired core/multilb test: two LB replicas behind
// anycast ECMP, no shared state. Client→VIP and server→LB directions
// hash independently, so replicas must steer flows whose SYN-ACK they
// never saw — via the consistent-hash fallback.
func TestTopologyTwoReplicasAnycastECMP(t *testing.T) {
	const n = 400
	tb := Build(Topology{
		Seed:     9,
		Replicas: 2,
		Pools:    []PoolSpec{{Servers: 6}},
		VIPs:     []VIPSpec{{Scheme: chashScheme(t), Fallback: chashFallback(t)}},
	})
	results := launchEvery(tb, n, 2*time.Millisecond, 5*time.Millisecond)

	if ok := okCount(results); ok != n {
		t.Fatalf("only %d/%d queries completed across replicas", ok, n)
	}
	a := tb.LBs[0].Counts.Get("syn_rx")
	b := tb.LBs[1].Counts.Get("syn_rx")
	if a+b != n {
		t.Fatalf("replicas saw %d+%d SYNs, want %d", a, b, n)
	}
	if a == 0 || b == 0 {
		t.Fatalf("ECMP did not split SYNs: %d/%d", a, b)
	}
	// The directions hash independently, so some flows MUST have been
	// steered by a replica that never learned them — via the fallback.
	fallbacks := tb.LBs[0].Counts.Get("miss_fallback") + tb.LBs[1].Counts.Get("miss_fallback")
	if fallbacks == 0 {
		t.Fatal("no cross-replica steering exercised — ECMP split suspiciously aligned")
	}
	t.Logf("replica SYN split %d/%d, cross-replica fallbacks %d", a, b, fallbacks)
}

// Failover regression: a replica dies mid-flow (declared as a lifecycle
// Event, not hand-wired detach calls); the Maglev miss-fallback keeps
// completions at 100%.
func TestTopologyReplicaFailoverMidFlow(t *testing.T) {
	const n = 100
	tb := Build(Topology{
		Seed:     11,
		Replicas: 2,
		Pools:    []PoolSpec{{Servers: 2}},
		VIPs:     []VIPSpec{{Scheme: chashScheme(t), Fallback: chashFallback(t)}},
		Span:     time.Second,
		Events:   []Event{FailReplica(0.06, 0)},
	})
	results := launchEvery(tb, n, time.Millisecond, 50*time.Millisecond)

	if ok := okCount(results); ok != n {
		t.Fatalf("only %d/%d completed across replica failure", ok, n)
	}
	if tb.LBs[1].Counts.Get("syn_rx") == 0 {
		t.Fatal("survivor saw no traffic — test vacuous")
	}
	// Traffic arriving after the kill must all land on the survivor.
	if down := tb.LBs[0].Counts.Get("syn_rx"); down >= n {
		t.Fatalf("dead replica kept receiving SYNs (%d)", down)
	}
}

// Scale-out/scale-in events: the pool grows by a freshly built server
// and drains another, with every query still served.
func TestTopologyServerChurnEvents(t *testing.T) {
	const n = 600
	tb := Build(Topology{
		Seed:  13,
		Pools: []PoolSpec{{Servers: 4}},
		Span:  time.Second,
		Events: []Event{
			AddServer(0.1, 0),
			DrainServer(0.3, 0, 0),
		},
	})
	offered := tapCandidates(tb.Net, 300*time.Millisecond)
	results := launchEvery(tb, n, time.Millisecond, 10*time.Millisecond)

	if ok := okCount(results); ok != n {
		t.Fatalf("only %d/%d completed across pool churn", ok, n)
	}
	// After the drain the LB offers exactly slots 1–4: 4 + 1 added - 1
	// drained.
	if got, want := offered[tb.VIPAddrOf(0)], poolAddrs(0, 1, 2, 3, 4); !maps.Equal(got, want) {
		t.Fatalf("candidates after the drain = %v, want %v", got, want)
	}
	// Servers in build order: the added one is appended last.
	if added := tb.Servers[4].Stats().Completed; added == 0 {
		t.Fatal("added server never served — scheme not rebuilt?")
	}
	// The drained server kept its established flows but left selection:
	// it must have completed work from before the drain only.
	if tb.Servers[0].Stats().Completed == 0 {
		t.Fatal("drained server served nothing at all — drain fired too early?")
	}
}

// Fail-stop server: in-flight work on the dead server is lost (clients
// time out at drain), but the cluster keeps serving and accounting
// balances.
func TestTopologyServerFailStop(t *testing.T) {
	const n = 400
	tb := Build(Topology{
		Seed:   17,
		Pools:  []PoolSpec{{Servers: 4}},
		Span:   time.Second,
		Events: []Event{failServer(0.1, 0, 1)},
	})
	results := launchEvery(tb, n, time.Millisecond, 20*time.Millisecond)

	if len(results) != n {
		t.Fatalf("accounting: %d results for %d queries", len(results), n)
	}
	ok := okCount(results)
	if ok == n {
		t.Fatal("no queries lost to the failed server — fail event inert?")
	}
	// The overwhelming majority must still complete: only flows bound to
	// the dead server at its death are lost.
	if ok < n*9/10 {
		t.Fatalf("only %d/%d completed after one server failure", ok, n)
	}
	if !tb.Routers[1].Down() {
		t.Fatal("failed router not marked down")
	}
}

// Multi-VIP: two services with separate pools and schemes on one LB;
// queries address either VIP and are served strictly by its own pool.
func TestTopologyMultiVIP(t *testing.T) {
	const n = 200
	tb := Build(Topology{
		Seed: 19,
		Pools: []PoolSpec{
			{Servers: 3},
			{Servers: 2},
		},
		VIPs: []VIPSpec{
			{},
			{Pool: 1},
		},
	})
	results := collect(tb)
	for i := 0; i < n; i++ {
		q := Query{ID: uint64(i), Demand: 5 * time.Millisecond}
		if i%2 == 1 {
			q.VIP = tb.VIPAddrOf(1)
		}
		tb.Sim.At(time.Duration(i)*time.Millisecond, func() { tb.Gen.Launch(q) })
	}
	tb.Sim.Run()
	tb.Gen.DrainPending()

	if ok := okCount(*results); ok != n {
		t.Fatalf("only %d/%d completed across two VIPs", ok, n)
	}
	// Servers in build order: VIP 0's three, then VIP 1's two.
	var vip0, vip1 uint64
	for _, s := range tb.Servers[:3] {
		vip0 += s.Stats().Completed
	}
	for _, s := range tb.Servers[3:] {
		vip1 += s.Stats().Completed
	}
	if vip0 != n/2 || vip1 != n/2 {
		t.Fatalf("per-VIP completions = %d/%d, want %d each", vip0, vip1, n/2)
	}
	// The LB's own per-VIP accounting agrees: one SYN per query, split
	// evenly across the two services.
	for v := 0; v < 2; v++ {
		if got := tb.LB.VIPSYNs(tb.VIPAddrOf(v)); got != n/2 {
			t.Fatalf("LB counted %d SYNs for VIP %d, want %d", got, v, n/2)
		}
	}
	if got := tb.LB.VIPSYNs(netip.MustParseAddr("2001:db8::dead")); got != 0 {
		t.Fatalf("unknown VIP counted %d SYNs, want 0", got)
	}
}

// Validate must reject every class of malformed schedule with a
// diagnosable error — table-driven over the error paths, including
// fractions and spans (Build panics on the same errors; the exported
// Validate returns them).
func TestTopologyValidateErrors(t *testing.T) {
	for name, tc := range map[string]struct {
		top  Topology
		want string
	}{
		"drain unknown server": {
			Topology{Pools: []PoolSpec{{Servers: 2}}, Span: time.Second, Events: []Event{DrainServer(0, 0, 5)}},
			"server 5 out of range",
		},
		"fail unknown server": {
			Topology{Pools: []PoolSpec{{Servers: 2}}, Span: time.Second, Events: []Event{failServer(0.5, 0, 2)}},
			"server 2 out of range",
		},
		"replica out of range": {
			Topology{Replicas: 2, Span: time.Second, Events: []Event{FailReplica(0, 2)}},
			"replica 2 out of range",
		},
		"recover unknown replica": {
			Topology{Span: time.Second, Events: []Event{RecoverReplica(0, -1)}},
			"replica -1 out of range",
		},
		"pool drained empty": {
			Topology{Pools: []PoolSpec{{Servers: 1}}, Span: time.Second, Events: []Event{DrainServer(0, 0, 0)}},
			"empties pool 0",
		},
		"unknown event kind": {
			Topology{Span: time.Second, Events: []Event{{Frac: 0.5, Kind: EventKind(99)}}},
			"unknown kind",
		},
		"negative fraction": {
			Topology{Pools: []PoolSpec{{Servers: 2}}, Span: time.Second, Events: []Event{DrainServer(-0.1, 0, 0)}},
			"outside [0, 1]",
		},
		"fraction beyond span": {
			Topology{Pools: []PoolSpec{{Servers: 2}}, Span: time.Second, Events: []Event{DrainServer(1.5, 0, 0)}},
			"outside [0, 1]",
		},
		"NaN fraction": {
			Topology{Span: time.Second, Events: []Event{DrainServer(math.NaN(), 0, 1)}},
			"fraction NaN outside [0, 1]",
		},
		"negative time": {
			Topology{Span: -time.Second, Events: []Event{DrainServer(0.5, 0, 1)}},
			"needs a positive Span, got -1s",
		},
		"no span": {
			Topology{Events: []Event{DrainServer(0.5, 0, 1)}},
			"needs a positive Span, got 0s",
		},
		"relative drain before its add": {
			// Fraction order is replay order: the drain of slot 2 at 0.2
			// precedes the add at 0.8, so slot 2 does not exist yet.
			Topology{Pools: []PoolSpec{{Servers: 2}}, Span: time.Second, Events: []Event{
				AddServer(0.8, 0),
				DrainServer(0.2, 0, 2),
			}},
			"server 2 out of range",
		},
		"VIP pool below range": {
			Topology{VIPs: []VIPSpec{{Name: "web", Pool: -1}}},
			"VIP 0 (web): pool -1 out of range (1 pools)",
		},
		"dangling pool reference": {
			Topology{Pools: []PoolSpec{{Servers: 2}, {Servers: 2}}, VIPs: []VIPSpec{{}, {Name: "web", Pool: 2}}},
			"VIP 1 (web): pool 2 out of range (2 pools)",
		},
		"event pool below range": {
			Topology{Span: time.Second, Events: []Event{DrainServer(0, -1, 0)}},
			"event 0: pool -1 out of range (1 pools)",
		},
		"event targets undefined pool": {
			Topology{
				Pools:  []PoolSpec{{Servers: 2}, {Servers: 2}},
				Span:   time.Second,
				Events: []Event{AddServer(0, 0), AddServer(0.5, 2)},
			},
			"event 1: pool 2 out of range (2 pools)",
		},
		"shared pool drained empty": {
			// Two VIPs contend on a one-server pool: the single drain
			// starves *both* services at once — rejected up front.
			Topology{
				Pools:  []PoolSpec{{Name: "shared", Servers: 1}},
				VIPs:   []VIPSpec{{}, {}},
				Span:   time.Second,
				Events: []Event{DrainServer(0.5, 0, 0)},
			},
			"empties pool 0",
		},
		"shared pool server out of range": {
			Topology{
				Pools:  []PoolSpec{{Servers: 2}, {Name: "shared", Servers: 2}},
				VIPs:   []VIPSpec{{}, {Pool: 1}, {Pool: 1}},
				Span:   time.Second,
				Events: []Event{failServer(0, 1, 7)},
			},
			"server 7 out of range for pool 1",
		},
	} {
		t.Run(name, func(t *testing.T) {
			err := tc.top.Validate()
			if err == nil {
				t.Fatalf("Validate accepted malformed topology %+v", tc.top)
			}
			if !strings.Contains(err.Error(), tc.want) {
				t.Fatalf("error %q does not mention %q", err, tc.want)
			}
		})
	}
	// Well-formed schedules, on one pool and on a shared one, pass.
	for name, top := range map[string]Topology{
		"one pool": {Pools: []PoolSpec{{Servers: 2}}, Span: time.Second, Events: []Event{
			AddServer(0.3, 0),
			DrainServer(0.6, 0, 2),
		}},
		"shared pool with pool events": {
			Pools: []PoolSpec{{Name: "shared", Servers: 2}},
			VIPs:  []VIPSpec{{}, {}},
			Span:  time.Second,
			Events: []Event{
				AddServer(0.3, 0),
				DrainServer(0.6, 0, 2),
			},
		},
		"pool without a VIP": {
			Pools:  []PoolSpec{{Servers: 2}, {Servers: 3}},
			Span:   time.Second,
			Events: []Event{DrainServer(0.5, 1, 2)},
		},
	} {
		if err := top.Validate(); err != nil {
			t.Fatalf("%s: Validate rejected well-formed topology: %v", name, err)
		}
	}
}

// Build resolves each event's fraction against Topology.Span: the events
// fire at time.Duration(Frac × Span), and a schedule without a span
// does not build.
func TestResolveEvents(t *testing.T) {
	tb := Build(Topology{Pools: []PoolSpec{{Servers: 3}}, Span: 200 * time.Second, Events: []Event{
		DrainServer(0.25, 0, 1),
		AddServer(0.75, 0),
	}})
	var got []time.Duration
	for tb.Sim.Step() {
		got = append(got, tb.Sim.Now())
	}
	if want := []time.Duration{50 * time.Second, 150 * time.Second}; !slices.Equal(got, want) {
		t.Fatalf("events fired at %v, want %v", got, want)
	}

	defer func() {
		if recover() == nil {
			t.Fatal("Build accepted events without a span")
		}
	}()
	Build(Topology{Pools: []PoolSpec{{Servers: 2}}, Events: []Event{DrainServer(0.5, 0, 0)}})
}

// Malformed topologies must fail loudly at Build, not mid-simulation.
func TestTopologyValidation(t *testing.T) {
	for name, top := range map[string]Topology{
		"bad pool index":    {Span: time.Second, Events: []Event{AddServer(0, 3)}},
		"bad server index":  {Pools: []PoolSpec{{Servers: 2}}, Span: time.Second, Events: []Event{DrainServer(0, 0, 5)}},
		"bad replica index": {Replicas: 2, Span: time.Second, Events: []Event{FailReplica(0, 2)}},
		"pool drained empty": {Pools: []PoolSpec{{Servers: 1}}, Span: time.Second,
			Events: []Event{DrainServer(0, 0, 0)}},
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%s: Build did not panic", name)
				}
			}()
			Build(top)
		}()
	}
	// An add event makes a later index valid: server 2 exists only after
	// the AddServer fires, and validation replays in time order.
	Build(Topology{
		Pools: []PoolSpec{{Servers: 2}},
		Span:  2 * time.Second,
		Events: []Event{
			AddServer(0.5, 0),
			DrainServer(1, 0, 2),
		},
	})
}

var benchTB *Testbed

// BenchmarkTestbedNew guards the construction cost of a paper-scale
// cell: Sweep cells are rebuilt per scenario, so at replicated-sweep
// scale (policies × loads × seeds) construction allocation pressure is
// sweep overhead.
func BenchmarkTestbedNew(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		benchTB = Build(Topology{Seed: uint64(i + 1), Pools: []PoolSpec{{Servers: 12}}})
	}
}
