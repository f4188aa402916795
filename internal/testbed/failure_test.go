package testbed

import (
	"testing"
	"time"

	"srlb/internal/agent"
	"srlb/internal/netsim"
	"srlb/internal/rng"
)

// Failure-injection tests: the protocol must degrade gracefully, never
// corrupt state, under packet loss, jitter and pathological policies.

func runWithNet(t *testing.T, netCfg netsim.Config, policy func(int) agent.Policy, n int, rate float64) *ran {
	t.Helper()
	cfg := Topology{Seed: 77, Net: netCfg, Pools: []PoolSpec{{Servers: 4, Policy: policy}}}
	tb := Build(cfg)
	results := collect(tb)
	r := rng.Split(cfg.Seed, 99)
	p := rng.NewPoisson(r, rate, 0)
	for i := 0; i < n; i++ {
		at := p.Next()
		q := Query{ID: uint64(i), Demand: rng.Exp(r, 20*time.Millisecond)}
		tb.Sim.At(at, func() { tb.Gen.Launch(q) })
	}
	tb.Sim.RunUntil(time.Duration(float64(n)/rate*float64(time.Second)) + 30*time.Second)
	tb.Gen.DrainPending()
	return &ran{tb, *results}
}

func TestPacketLossDegradesGracefully(t *testing.T) {
	// 2% loss: some queries never finish (no retransmit model), but
	// accounting must balance and no server may wedge.
	tb := runWithNet(t,
		netsim.Config{LossProb: 0.02, Seed: 5},
		func(int) agent.Policy { return agent.NewStatic(4) },
		2000, 100)
	results := tb.results
	if len(results) != 2000 {
		t.Fatalf("results = %d", len(results))
	}
	ok := 0
	for _, r := range results {
		if r.OK {
			ok++
		}
	}
	// With ~8 packets per query and 2% loss, roughly 1-in-6 queries lose a
	// packet somewhere; far more than half must still succeed.
	if ok < 1200 {
		t.Fatalf("only %d/2000 ok under 2%% loss", ok)
	}
	if ok == 2000 {
		t.Fatal("no losses observed — loss injection inert?")
	}
	// Servers must not leak workers: all admitted conns eventually
	// complete since the PS engine is loss-agnostic once admitted.
	for i, s := range tb.Servers {
		if s.Stats().Admitted != s.Stats().Completed {
			t.Fatalf("server %d: admitted %d != completed %d",
				i, s.Stats().Admitted, s.Stats().Completed)
		}
		if s.BusyWorkers() != 0 {
			t.Fatalf("server %d wedged with %d busy workers", i, s.BusyWorkers())
		}
	}
}

func TestJitterPreservesCorrectness(t *testing.T) {
	tb := runWithNet(t,
		netsim.Config{JitterFrac: 0.8, Seed: 6},
		func(int) agent.Policy { return agent.NewStatic(4) },
		1500, 100)
	ok := 0
	for _, r := range tb.results {
		if r.OK {
			ok++
		}
	}
	if ok != 1500 {
		t.Fatalf("ok = %d under jitter, want 1500 (no loss configured)", ok)
	}
}

func TestChecksumVerificationOnTheFullPath(t *testing.T) {
	// With checksum verification enabled at every hop, a full run must
	// still succeed: the LB's SRH insertion/stripping and the vrouter's
	// segment advance must all preserve TCP checksums.
	tb := runWithNet(t,
		netsim.Config{VerifyChecksums: true},
		func(int) agent.Policy { return agent.NewStatic(4) },
		1000, 80)
	for _, r := range tb.results {
		if !r.OK {
			t.Fatal("query failed under checksum verification")
		}
	}
	if tb.Net.Counts.Get("rx_parse_error") != 0 {
		t.Fatal("checksum errors on the wire")
	}
}

// TestMixedPolicies: heterogeneous agents (some servers eager, some
// strict) must still serve everything — the hunt's satisfiability
// guarantee is per-packet, not per-policy.
func TestMixedPolicies(t *testing.T) {
	tb := runWithNet(t,
		netsim.Config{},
		func(i int) agent.Policy {
			if i%2 == 0 {
				return agent.Never{}
			}
			return agent.Always{}
		},
		1000, 60)
	ok := 0
	for _, r := range tb.results {
		if r.OK {
			ok++
		}
	}
	if ok != 1000 {
		t.Fatalf("ok = %d with mixed policies", ok)
	}
}

// TestSRdynAdaptsAcrossLoadShift: drive light load then heavy load and
// verify the dynamic policy's threshold moves up under pressure.
func TestSRdynAdaptsAcrossLoadShift(t *testing.T) {
	cfg := Topology{Seed: 78, Pools: []PoolSpec{{Servers: 4}}}
	policies := make([]*agent.Dynamic, 0, 4)
	cfg.Pools[0].Policy = func(int) agent.Policy {
		p := agent.NewDynamic(0)
		policies = append(policies, p)
		return p
	}
	tb := Build(cfg)
	r := rng.Split(cfg.Seed, 99)
	// Phase 1: light (20 q/s for 20s). Phase 2: heavy (70 q/s for 40s).
	at := time.Duration(0)
	id := uint64(0)
	for at < 20*time.Second {
		at += rng.ExpRate(r, 20)
		q := Query{ID: id, Demand: rng.Exp(r, 100*time.Millisecond)}
		id++
		tb.Sim.At(at, func() { tb.Gen.Launch(q) })
	}
	var lightC int
	tb.Sim.At(20*time.Second, func() {
		for _, p := range policies {
			lightC += p.C()
		}
	})
	for at < 60*time.Second {
		at += rng.ExpRate(r, 70)
		q := Query{ID: id, Demand: rng.Exp(r, 100*time.Millisecond)}
		id++
		tb.Sim.At(at, func() { tb.Gen.Launch(q) })
	}
	tb.Sim.RunUntil(90 * time.Second)
	tb.Gen.DrainPending()
	var heavyC int
	for _, p := range policies {
		heavyC += p.C()
	}
	if heavyC <= lightC {
		t.Fatalf("SRdyn did not raise c under load: light total=%d heavy total=%d", lightC, heavyC)
	}
}

// TestFlowTableBoundedUnderChurn: the LB must not grow state without
// bound across tens of thousands of short flows.
func TestFlowTableBoundedUnderChurn(t *testing.T) {
	cfg := Topology{Seed: 79, Pools: []PoolSpec{{Servers: 4}}}
	tb := Build(cfg)
	r := rng.Split(cfg.Seed, 99)
	p := rng.NewPoisson(r, 500, 0)
	for i := 0; i < 20000; i++ {
		at := p.Next()
		q := Query{ID: uint64(i), Demand: rng.Exp(r, 2*time.Millisecond)}
		tb.Sim.At(at, func() { tb.Gen.Launch(q) })
	}
	tb.Sim.RunUntil(45 * time.Second)
	tb.Gen.DrainPending()
	// After the run plus idle TTL (60s default) everything should expire
	// on the next datapath sweep; check the live count is far below the
	// total flow count even before that.
	if tb.LB.FlowCount() > 40000 {
		t.Fatalf("flow table grew to %d entries", tb.LB.FlowCount())
	}
	tb.Sim.RunUntil(200 * time.Second)
	tb.LB.SweepNow()
	if tb.LB.FlowCount() != 0 {
		t.Fatalf("flows leaked: %d", tb.LB.FlowCount())
	}
}
