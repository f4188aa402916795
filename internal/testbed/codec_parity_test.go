package testbed

import (
	"fmt"
	"math/rand/v2"
	"net/netip"
	"reflect"
	"testing"
	"time"

	"srlb/internal/agent"
	"srlb/internal/feedback"
	"srlb/internal/netsim"
	"srlb/internal/rng"
	"srlb/internal/selection"
)

// runFingerprint is everything a run leaves behind that the simulated
// wire could perturb: what the clients observed, every node's counters,
// the LB replicas' per-VIP SYN accounting and the number of DES events.
// CountLines holds the counters again as "node key value" lines, in node
// order and each node's Keys() order.
type runFingerprint struct {
	Results    uint64
	Counts     map[string]map[string]uint64
	CountLines []string
	VIPSYNs    []uint64
	Processed  uint64
}

// parityCase is one topology of TestCodecElisionParity: n Poisson
// queries at rate per second with exponential demands of mean demand.
type parityCase struct {
	name     string
	top      Topology
	n        int
	rate     float64
	demand   time.Duration
	closeAck bool
	rto      time.Duration
	// exercised names a counter (node label, key) the case exists for;
	// it must be non-zero, or the case proves nothing.
	exercised [2]string
}

func (c parityCase) run(verify bool) runFingerprint {
	top := c.top
	top.Net.VerifyChecksums = verify
	tb := Build(top)
	results := collect(tb)
	tb.Gen.CloseAck = c.closeAck
	tb.Gen.RetransmitRTO = c.rto
	r := rng.Split(top.Seed, 0xc0de)
	p := rng.NewPoisson(rng.Split(top.Seed, 0xa77), c.rate, 0)
	for i := 0; i < c.n; i++ {
		at := p.Next()
		q := Query{ID: uint64(i), Demand: rng.Exp(r, c.demand)}
		if len(top.VIPs) > 1 && i%3 == 1 {
			q.VIP = tb.VIPAddrOf(1)
		}
		tb.Sim.At(at, func() { tb.Gen.Launch(q) })
	}
	tb.Sim.Run()
	tb.Gen.DrainPending()

	fp := runFingerprint{
		Results:   resultsDigest(*results),
		Counts:    map[string]map[string]uint64{},
		Processed: tb.Sim.Processed(),
	}
	counts := func(label string, get func(string) uint64, keys []string) {
		m := make(map[string]uint64, len(keys))
		for _, k := range keys {
			m[k] = get(k)
			fp.CountLines = append(fp.CountLines, fmt.Sprintf("%s %s %d", label, k, m[k]))
		}
		fp.Counts[label] = m
	}
	counts("net", tb.Net.Counts.Get, tb.Net.Counts.Keys())
	counts("gen", tb.Gen.Counts.Get, tb.Gen.Counts.Keys())
	for i, lb := range tb.LBs {
		counts(fmt.Sprintf("lb%d", i), lb.Counts.Get, lb.Counts.Keys())
		for v := range top.VIPs {
			fp.VIPSYNs = append(fp.VIPSYNs, lb.VIPSYNs(tb.VIPAddrOf(v)))
		}
	}
	for i, rt := range tb.Routers {
		counts(fmt.Sprintf("router%d", i), rt.Counts.Get, rt.Counts.Keys())
	}
	return fp
}

// flowletScheme is a VIP's 2 ms flowlet scheme reading the feedback view
// when the topology has one.
func flowletScheme(servers []netip.Addr, r *rand.Rand, view *feedback.VIPView) selection.Scheme {
	var lv selection.LoadView
	if view != nil {
		lv = view
	}
	return selection.NewFlowlet(servers, 2*time.Millisecond, r, lv)
}

// parityCases are the topologies that reach every way a packet is sent,
// forwarded, rewritten or dropped.
func parityCases() []parityCase {
	sr4 := func(int) agent.Policy { return agent.NewStatic(4) }
	return []parityCase{
		{
			name: "sr4_cell",
			top:  Topology{Seed: 301, Pools: []PoolSpec{{Policy: sr4}}},
			n:    3000, rate: 1000, demand: 20 * time.Millisecond,
			exercised: [2]string{"lb0", "steered"},
		},
		{
			name: "flowlet_feedback_closeack",
			top: Topology{
				Seed:     302,
				Pools:    []PoolSpec{{Servers: 6}},
				VIPs:     []VIPSpec{{Scheme: flowletScheme}},
				Feedback: feedback.Config{Enabled: true, Interval: 5 * time.Millisecond, Horizon: 5 * time.Second},
			},
			n: 2000, rate: 500, demand: 20 * time.Millisecond, closeAck: true,
			exercised: [2]string{"lb0", "flowlet_resteer"},
		},
		{
			name: "anycast_replicas_fail",
			top: Topology{
				Seed:     303,
				Replicas: 2,
				Pools: []PoolSpec{
					{Servers: 4},
					{Servers: 3},
				},
				VIPs: []VIPSpec{
					{Fallback: testFallback},
					{Pool: 1, Fallback: testFallback},
				},
				Events: []Event{FailReplica(400*time.Millisecond, 1)},
			},
			n: 1200, rate: 900, demand: 12 * time.Millisecond,
			exercised: [2]string{"lb0", "miss_fallback"},
		},
		{
			name: "loss_jitter",
			top: Topology{
				Seed:  304,
				Pools: []PoolSpec{{Servers: 4, Policy: sr4}},
				Net:   netsim.Config{LossProb: 0.02, JitterFrac: 0.5, Seed: 5},
			},
			n: 2000, rate: 150, demand: 20 * time.Millisecond, rto: 100 * time.Millisecond,
			exercised: [2]string{"net", "lost"},
		},
	}
}

// TestCodecElisionParity: a run is the same simulation whether every hop
// goes through wire bytes (VerifyChecksums, the reference path) or not —
// same client results, same counters on every node, same per-VIP SYN
// accounting, same number of DES events — on the topologies that reach
// every way a packet is sent, forwarded, rewritten or dropped.
func TestCodecElisionParity(t *testing.T) {
	for _, c := range parityCases() {
		t.Run(c.name, func(t *testing.T) {
			ref, got := c.run(true), c.run(false)
			if v := ref.Counts[c.exercised[0]][c.exercised[1]]; v == 0 {
				t.Fatalf("%s %s = 0: the case does not reach what it is for", c.exercised[0], c.exercised[1])
			}
			if ref.Results != got.Results {
				t.Errorf("results digest %#x with wire bytes, %#x without", ref.Results, got.Results)
			}
			if ref.Processed != got.Processed {
				t.Errorf("DES events %d with wire bytes, %d without", ref.Processed, got.Processed)
			}
			if !reflect.DeepEqual(ref.VIPSYNs, got.VIPSYNs) {
				t.Errorf("VIPSYNs %v with wire bytes, %v without", ref.VIPSYNs, got.VIPSYNs)
			}
			for node, want := range ref.Counts {
				if have := got.Counts[node]; !reflect.DeepEqual(want, have) {
					t.Errorf("%s counts with wire bytes:\n %v\nwithout:\n %v", node, want, have)
				}
			}
			if len(ref.Counts) != len(got.Counts) {
				t.Errorf("%d nodes counted with wire bytes, %d without", len(ref.Counts), len(got.Counts))
			}
		})
	}
}
