package testbed

import (
	"maps"
	"math"
	"math/rand/v2"
	"net/netip"
	"strings"
	"testing"
	"time"

	"srlb/internal/feedback"
	"srlb/internal/selection"
)

// failServer is a fail-stop event for server i of pool at time at.
func failServer(at time.Duration, pool, i int) Event {
	return Event{At: at, Kind: EventServerFail, Pool: pool, Server: i}
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
		Events:   []Event{FailReplica(60*time.Millisecond, 0)},
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
		Events: []Event{
			AddServer(100*time.Millisecond, 0),
			DrainServer(300*time.Millisecond, 0, 0),
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
		Events: []Event{failServer(100*time.Millisecond, 0, 1)},
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
// diagnosable error — table-driven over the error paths, including the
// rate-relative ones (Build panics on the same errors; the exported
// Validate returns them).
func TestTopologyValidateErrors(t *testing.T) {
	for name, tc := range map[string]struct {
		top  Topology
		want string
	}{
		"drain unknown server": {
			Topology{Pools: []PoolSpec{{Servers: 2}}, Events: []Event{DrainServer(0, 0, 5)}},
			"server 5 out of range",
		},
		"fail unknown server": {
			Topology{Pools: []PoolSpec{{Servers: 2}}, Events: []Event{failServer(time.Second, 0, 2)}},
			"server 2 out of range",
		},
		"replica out of range": {
			Topology{Replicas: 2, Events: []Event{FailReplica(0, 2)}},
			"replica 2 out of range",
		},
		"recover unknown replica": {
			Topology{Events: []Event{RecoverReplica(0, -1)}},
			"replica -1 out of range",
		},
		"pool drained empty": {
			Topology{Pools: []PoolSpec{{Servers: 1}}, Events: []Event{DrainServer(0, 0, 0)}},
			"empties pool 0",
		},
		"unknown event kind": {
			Topology{Events: []Event{{At: time.Second, Kind: EventKind(99)}}},
			"unknown kind",
		},
		"negative fraction": {
			Topology{Pools: []PoolSpec{{Servers: 2}}, Events: []Event{DrainServer(0, 0, 0).AtFraction(-0.1)}},
			"outside [0, 1]",
		},
		"fraction beyond span": {
			Topology{Pools: []PoolSpec{{Servers: 2}}, Events: []Event{DrainServer(0, 0, 0).AtFraction(1.5)}},
			"outside [0, 1]",
		},
		"NaN fraction": {
			Topology{Events: []Event{DrainServer(0, 0, 1).AtFraction(math.NaN())}},
			"fraction NaN outside [0, 1]",
		},
		"negative time": {
			Topology{Events: []Event{DrainServer(-time.Second, 0, 1)}},
			"negative time -1s",
		},
		"absolute and fraction overlap": {
			Topology{Pools: []PoolSpec{{Servers: 2}},
				Events: []Event{{At: time.Second, Kind: EventServerDrain, Frac: 0.5, Relative: true}}},
			"both absolute time",
		},
		"mixed absolute and relative schedule": {
			Topology{Pools: []PoolSpec{{Servers: 3}}, Events: []Event{
				DrainServer(time.Second, 0, 0),
				DrainServer(0, 0, 1).AtFraction(0.5),
			}},
			"mixes",
		},
		"relative drain before its add": {
			// Fraction order is replay order: the drain of slot 2 at 0.2
			// precedes the add at 0.8, so slot 2 does not exist yet.
			Topology{Pools: []PoolSpec{{Servers: 2}}, Events: []Event{
				AddServer(0, 0).AtFraction(0.8),
				DrainServer(0, 0, 2).AtFraction(0.2),
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
			Topology{Events: []Event{DrainServer(0, -1, 0)}},
			"event 0: pool -1 out of range (1 pools)",
		},
		"event targets undefined pool": {
			Topology{
				Pools:  []PoolSpec{{Servers: 2}, {Servers: 2}},
				Events: []Event{AddServer(0, 0), AddServer(time.Second, 2)},
			},
			"event 1: pool 2 out of range (2 pools)",
		},
		"shared pool drained empty": {
			// Two VIPs contend on a one-server pool: the single drain
			// starves *both* services at once — rejected up front.
			Topology{
				Pools:  []PoolSpec{{Name: "shared", Servers: 1}},
				VIPs:   []VIPSpec{{}, {}},
				Events: []Event{DrainServer(time.Second, 0, 0)},
			},
			"empties pool 0",
		},
		"shared pool server out of range": {
			Topology{
				Pools:  []PoolSpec{{Servers: 2}, {Name: "shared", Servers: 2}},
				VIPs:   []VIPSpec{{}, {Pool: 1}, {Pool: 1}},
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
	// Well-formed schedules — absolute, all-relative, and shared-pool —
	// pass.
	for name, top := range map[string]Topology{
		"absolute": {Pools: []PoolSpec{{Servers: 2}}, Events: []Event{
			AddServer(time.Second, 0),
			DrainServer(2*time.Second, 0, 2),
		}},
		"relative": {Pools: []PoolSpec{{Servers: 2}}, Events: []Event{
			AddServer(0, 0).AtFraction(0.3),
			DrainServer(0, 0, 2).AtFraction(0.6),
		}},
		"shared pool with pool events": {
			Pools: []PoolSpec{{Name: "shared", Servers: 2}},
			VIPs:  []VIPSpec{{}, {}},
			Events: []Event{
				AddServer(time.Second, 0),
				DrainServer(2*time.Second, 0, 2),
			},
		},
		"pool without a VIP": {
			Pools:  []PoolSpec{{Servers: 2}, {Servers: 3}},
			Events: []Event{DrainServer(time.Second, 1, 2)},
		},
	} {
		if err := top.Validate(); err != nil {
			t.Fatalf("%s: Validate rejected well-formed topology: %v", name, err)
		}
	}
}

// ResolveEvents turns fractions into absolute times against the span and
// leaves absolute events untouched; Build refuses unresolved fractions.
func TestResolveEvents(t *testing.T) {
	span := 200 * time.Second
	resolved := ResolveEvents([]Event{
		DrainServer(0, 0, 1).AtFraction(0.25),
		AddServer(0, 0).AtFraction(0.75),
	}, span)
	if got, want := resolved[0].At, 50*time.Second; got != want {
		t.Fatalf("resolved[0].At = %v, want %v", got, want)
	}
	if got, want := resolved[1].At, 150*time.Second; got != want {
		t.Fatalf("resolved[1].At = %v, want %v", got, want)
	}
	for i, ev := range resolved {
		if ev.Relative || ev.Frac != 0 {
			t.Fatalf("resolved[%d] still marked relative: %+v", i, ev)
		}
	}
	// Absolute events pass through bit for bit, and the input slice is
	// not mutated (topologies are shared values).
	orig := []Event{DrainServer(7*time.Second, 0, 0).AtFraction(0.5)}
	out := ResolveEvents(append([]Event{FailReplica(3*time.Second, 0)}, orig[0]), span)
	if out[0] != FailReplica(3*time.Second, 0) {
		t.Fatalf("absolute event changed: %+v", out[0])
	}
	if !orig[0].Relative {
		t.Fatal("ResolveEvents mutated its input slice")
	}

	// Malformed fractions must fail at resolution — the workload path
	// resolves before Build, so this is where they are last seen.
	for name, bad := range map[string][]Event{
		"negative fraction": {DrainServer(0, 0, 0).AtFraction(-0.1)},
		"fraction above 1":  {DrainServer(0, 0, 0).AtFraction(1.5)},
		"NaN fraction":      {DrainServer(0, 0, 0).AtFraction(math.NaN())},
		"absolute and fraction both set": {
			{At: time.Second, Kind: EventServerDrain, Frac: 0.5, Relative: true},
		},
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%s: ResolveEvents did not panic", name)
				}
			}()
			ResolveEvents(bad, span)
		}()
	}

	defer func() {
		if recover() == nil {
			t.Fatal("Build accepted unresolved rate-relative events")
		}
	}()
	Build(Topology{Pools: []PoolSpec{{Servers: 2}},
		Events: []Event{DrainServer(0, 0, 0).AtFraction(0.5)}})
}

// Malformed topologies must fail loudly at Build, not mid-simulation.
func TestTopologyValidation(t *testing.T) {
	for name, top := range map[string]Topology{
		"bad pool index":    {Events: []Event{AddServer(0, 3)}},
		"bad server index":  {Pools: []PoolSpec{{Servers: 2}}, Events: []Event{DrainServer(0, 0, 5)}},
		"bad replica index": {Replicas: 2, Events: []Event{FailReplica(0, 2)}},
		"pool drained empty": {Pools: []PoolSpec{{Servers: 1}},
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
		Events: []Event{
			AddServer(time.Second, 0),
			DrainServer(2*time.Second, 0, 2),
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
