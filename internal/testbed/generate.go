// GenerateTopology mass-produces control-plane-scale topologies: 1k–10k
// VIPs spread over a handful of shared server pools, with every address
// derived deterministically from the VIP/pool index (VIPAddr, and
// SharedPoolServerAddr at Build). This is the regime where kube-proxy's
// O(n) iptables traversal collapses and an O(1) indexed dispatch stays
// flat — the generator exists so benchmarks and the vipscale experiment
// can sweep service count without hand-declaring thousands of specs.

package testbed

import "fmt"

// GenSpec parameterizes GenerateTopology. The zero value (plus a VIP
// count) produces a paper-flavored cluster: one LB replica, shared pools
// of 12 default servers, random-2 selection, no fallback.
type GenSpec struct {
	// Seed drives every random stream of the built topology (selection
	// schemes, network jitter); addresses do NOT depend on it — they are
	// functions of the index alone, so two differently-seeded generations
	// of the same shape are address-identical.
	Seed uint64
	// VIPs is the number of services (required, ≥ 1).
	VIPs int
	// Pools is the number of shared server pools the VIPs are spread
	// over, round-robin by VIP index (default: VIPs/64 rounded up, capped
	// at 64 — thousands of services over tens of pools, the datacenter
	// shape).
	Pools int
	// ServersPerPool sizes each pool (default 12, the paper's).
	ServersPerPool int
	// Clients is the number of traffic sources (default 8).
	Clients int
	// Scheme builds each VIP's candidate selection (default random-2);
	// Fallback, when non-nil, each VIP's miss-fallback.
	Scheme   SchemeFn
	Fallback FallbackFn
	// Events is the lifecycle schedule, passed through to the topology.
	Events []Event
}

func (g GenSpec) withDefaults() GenSpec {
	if g.VIPs < 1 {
		panic(fmt.Sprintf("testbed: GenSpec.VIPs must be ≥ 1, got %d", g.VIPs))
	}
	if g.Pools <= 0 {
		g.Pools = (g.VIPs + 63) / 64
		if g.Pools > 64 {
			g.Pools = 64
		}
	}
	if g.Pools > g.VIPs {
		g.Pools = g.VIPs
	}
	if g.ServersPerPool <= 0 {
		g.ServersPerPool = 12
	}
	return g
}

// GenerateTopology builds the declarative Topology for the spec. The
// result is an ordinary Topology — compile it with Build, validate it,
// attach events — whose size is bounded only by memory: pool addresses
// are index-deterministic (SharedPoolServerAddr), VIP addresses walk the
// VIP /64, and VIP i selects over pool i mod Pools.
func GenerateTopology(spec GenSpec) Topology {
	spec = spec.withDefaults()
	pools := make([]PoolSpec, spec.Pools)
	for p := range pools {
		pools[p] = PoolSpec{Servers: spec.ServersPerPool}
	}
	vips := make([]VIPSpec, spec.VIPs)
	for v := range vips {
		vips[v] = VIPSpec{
			Name:     fmt.Sprintf("svc-%d", v),
			Addr:     VIPAddr(v),
			Pool:     v % spec.Pools,
			Scheme:   spec.Scheme,
			Fallback: spec.Fallback,
		}
	}
	return Topology{
		Seed:    spec.Seed,
		Pools:   pools,
		VIPs:    vips,
		Clients: spec.Clients,
		Events:  spec.Events,
	}
}
