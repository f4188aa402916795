package experiments

import (
	"os"
	"testing"
)

// TestDispatchComplexityClass pins the complexity class the vipscale
// experiment plots: per-packet dispatch cost at 10k advertised services
// must stay within 2x of the 1k cost on both the SYN (Service Hunting)
// and steered (flow-table hit) paths. The 2x bound is deliberately
// loose — cache effects at 10x the working set are real — but an O(n)
// dispatch structure fails it by a factor of ~5. Timing is min-over-rounds
// wall loops — too noisy for the ordinary test pass, so the test is gated
// behind SRLB_BENCH_CORE=1, which CI's test job sets in its own step.
func TestDispatchComplexityClass(t *testing.T) {
	if os.Getenv("SRLB_BENCH_CORE") == "" {
		t.Skip("set SRLB_BENCH_CORE=1 to run the complexity-class regression")
	}
	const (
		ops    = 50000
		rounds = 5
		flows  = 4096
		bound  = 2.0
	)
	measure := func(vips int) (synNs, steerNs float64) {
		rig := NewDispatchRig(0x51ca1e, vips, 16, 12, VIPScaleSchemes()[0])
		rig.SeedFlows(flows)
		rig.MeasureSYN(ops / 10)
		rig.MeasureSteered(ops/10, flows)
		for round := 0; round < rounds; round++ {
			if s := rig.MeasureSYN(ops); round == 0 || s < synNs {
				synNs = s
			}
			if s := rig.MeasureSteered(ops, flows); round == 0 || s < steerNs {
				steerNs = s
			}
		}
		return synNs, steerNs
	}
	syn1k, steer1k := measure(1000)
	syn10k, steer10k := measure(10000)
	t.Logf("syn: 1k %.0f ns/op, 10k %.0f ns/op (ratio %.2f)", syn1k, syn10k, syn10k/syn1k)
	t.Logf("steer: 1k %.0f ns/op, 10k %.0f ns/op (ratio %.2f)", steer1k, steer10k, steer10k/steer1k)
	if syn10k > bound*syn1k {
		t.Errorf("SYN dispatch at 10k VIPs costs %.0f ns/op, more than %.1fx the 1k cost %.0f — dispatch is not O(1)",
			syn10k, bound, syn1k)
	}
	if steer10k > bound*steer1k {
		t.Errorf("steered dispatch at 10k VIPs costs %.0f ns/op, more than %.1fx the 1k cost %.0f — dispatch is not O(1)",
			steer10k, bound, steer1k)
	}
}
