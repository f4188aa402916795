// VIP-scale dispatch cost: per-packet load-balancer cost as the number
// of advertised services sweeps 100 → 10k, per selection scheme — the
// regime where kube-proxy's O(n) iptables traversal collapses while an
// O(1) hash dispatch stays flat. The measurement drives the LB's Handle
// loop directly on generated topologies (testbed.GenerateTopology):
// packets are crafted and dispatched without running the simulator, so
// the number is pure forwarding-plane work (VIP lookup, scheme pick or
// flow-table hit, SRH construction, Send's wire check), not queueing.
//
// RunVIPScale is the canonical instance behind
// `srlb-bench -experiment vipscale`. The headline figure is the flat
// latency-vs-#services curve; TestDispatchComplexityClass fails the
// build if dispatch at 10k VIPs ever exceeds 2× its 1k cost.

package experiments

import (
	"fmt"
	"math/rand/v2"
	"net/netip"
	"time"

	"srlb/internal/feedback"
	"srlb/internal/packet"
	"srlb/internal/plot"
	"srlb/internal/selection"
	"srlb/internal/tcpseg"
	"srlb/internal/testbed"
)

// VIPScaleScheme names one selection scheme variant for the sweep.
type VIPScaleScheme struct {
	Name     string
	Scheme   testbed.SchemeFn
	Fallback testbed.FallbackFn // optional miss-fallback (chash variants)
}

// vipScaleTableSize is the Maglev table size the chash variant uses:
// prime, ≥ 300× the 12-server pools — small enough that even a cold
// cache populates in microseconds.
const vipScaleTableSize = 4099

// VIPScaleSchemes returns the default scheme axis: the paper's random-2,
// deterministic round-robin-2, and Maglev consistent hashing (with
// itself as miss-fallback — the production configuration).
func VIPScaleSchemes() []VIPScaleScheme {
	chash := func(servers []netip.Addr) selection.Scheme {
		cs, err := selection.NewConsistentHash(servers, vipScaleTableSize)
		if err != nil {
			panic(fmt.Sprintf("vipscale: chash: %v", err))
		}
		return cs
	}
	return []VIPScaleScheme{
		{Name: "random2", Scheme: func(servers []netip.Addr, r *rand.Rand, _ *feedback.VIPView) selection.Scheme {
			return selection.NewRandom(servers, 2, r)
		}},
		{Name: "roundrobin2", Scheme: func(servers []netip.Addr, _ *rand.Rand, _ *feedback.VIPView) selection.Scheme {
			return selection.NewRoundRobin(servers, 2)
		}},
		{Name: "chash2", Scheme: func(servers []netip.Addr, _ *rand.Rand, _ *feedback.VIPView) selection.Scheme {
			return chash(servers)
		}, Fallback: chash},
	}
}

// VIPScaleConfig parameterizes the sweep.
type VIPScaleConfig struct {
	// VIPCounts is the service-count axis (default {100, 1000, 10000}).
	VIPCounts []int
	// Seed drives the topology's random streams (default 0x51ca1e).
	Seed     uint64
	Progress func(string)
}

func (cfg VIPScaleConfig) withDefaults() VIPScaleConfig {
	if len(cfg.VIPCounts) == 0 {
		cfg.VIPCounts = []int{100, 1000, 10000}
	}
	if cfg.Seed == 0 {
		cfg.Seed = 0x51ca1e
	}
	return cfg
}

const (
	// The VIPs spread over vipScalePools shared server pools of
	// vipScaleServersPerPool servers each.
	vipScalePools          = 16
	vipScaleServersPerPool = 12
	// vipScaleOps is the dispatch-op count per measured path; each
	// measurement runs vipScaleRounds times, keeping the minimum — the
	// least-noise estimator for a deterministic loop.
	vipScaleOps    = 100000
	vipScaleRounds = 3
	// vipScaleWarmFlows seeds the flow table for the steered-path
	// measurement.
	vipScaleWarmFlows = 4096
)

// VIPScaleRow is one (scheme, VIP-count) measurement.
type VIPScaleRow struct {
	Scheme string
	VIPs   int
	Pools  int
	// BuildMS is the control-plane cost: topology generation + compile
	// (all replica schemes, pools, servers) in wall milliseconds.
	BuildMS float64
	// SYNNs is the per-packet SYN (Service Hunting) dispatch cost and
	// SteerNs the per-packet steered (flow-table hit) cost, wall ns.
	SYNNs   float64
	SteerNs float64
	Ops     int
}

// VIPScaleResult is the full sweep.
type VIPScaleResult struct {
	VIPCounts []int
	Rows      []VIPScaleRow
}

// DispatchRig drives one generated topology's primary LB replica
// directly: it crafts client packets and calls Handle without ever
// running the simulator (netsim only schedules deliveries, so pending
// events pile up harmlessly and virtual time stays at zero).
// TestDispatchComplexityClass pins the complexity class of the same
// loop.
type DispatchRig struct {
	TB      *testbed.Testbed
	vips    []netip.Addr
	clients []netip.Addr
	server  netip.Addr
	pkt     packet.Packet
}

// NewDispatchRig generates and compiles a topology of the given shape
// and prepares the packet loop.
func NewDispatchRig(seed uint64, vipCount, pools, serversPerPool int, scheme VIPScaleScheme) *DispatchRig {
	top := testbed.GenerateTopology(testbed.GenSpec{
		Seed:           seed,
		VIPs:           vipCount,
		Pools:          pools,
		ServersPerPool: serversPerPool,
		Scheme:         scheme.Scheme,
		Fallback:       scheme.Fallback,
	})
	// Drop every delivery: Send still checks the packet as Marshal would
	// (part of the cost we measure) but recycles its slot at once instead of
	// scheduling it, so millions of dispatches don't pile pending events
	// (and their GC pressure) into the never-run simulator.
	top.Net.LossProb = 1
	tb := testbed.Build(top)
	r := &DispatchRig{
		TB:      tb,
		vips:    make([]netip.Addr, vipCount),
		clients: make([]netip.Addr, 8),
		server:  testbed.SharedPoolServerAddr(0, 0),
	}
	for v := range r.vips {
		r.vips[v] = testbed.VIPAddr(v)
	}
	for j := range r.clients {
		r.clients[j] = testbed.ClientAddr(j)
	}
	return r
}

// synFlow returns the i-th SYN-path flow: source ports below 32768,
// disjoint from the seeded steered flows, cycling clients and VIPs so
// consecutive packets hit different services.
func (r *DispatchRig) synFlow(i int) (src, dst netip.Addr, sport uint16) {
	return r.clients[i%len(r.clients)], r.vips[i%len(r.vips)], uint16(1024 + i%30000)
}

// steerFlow returns the k-th seeded flow (source ports ≥ 32768).
func (r *DispatchRig) steerFlow(k int) (src, dst netip.Addr, sport uint16) {
	return r.clients[k%len(r.clients)], r.vips[k%len(r.vips)], uint16(32768 + k%32000)
}

// SeedFlows installs n flow-table bindings for the steered-path loop.
func (r *DispatchRig) SeedFlows(n int) {
	for k := 0; k < n; k++ {
		src, dst, sport := r.steerFlow(k)
		r.TB.LB.SeedFlow(packet.FlowKey{Src: src, Dst: dst, SrcPort: sport, DstPort: 80}, r.server)
	}
}

// SYNOp dispatches the i-th SYN packet (VIP lookup → scheme pick →
// hunt SRH → wire check) — one per-packet unit of Service Hunting work,
// exposed so testing.B loops can drive single ops.
func (r *DispatchRig) SYNOp(i int) {
	src, dst, sport := r.synFlow(i)
	r.pkt.IP.Src, r.pkt.IP.Dst = src, dst
	r.pkt.TCP = tcpseg.Segment{SrcPort: sport, DstPort: 80, Flags: tcpseg.FlagSYN}
	r.pkt.SRH = nil
	r.TB.LB.Handle(&r.pkt)
}

// SteerOp dispatches the i-th steered packet over n seeded flows (VIP
// lookup → flow-table hit → steer SRH → wire check). Call SeedFlows(n)
// first.
func (r *DispatchRig) SteerOp(i, n int) {
	src, dst, sport := r.steerFlow(i % n)
	r.pkt.IP.Src, r.pkt.IP.Dst = src, dst
	r.pkt.TCP = tcpseg.Segment{SrcPort: sport, DstPort: 80, Flags: tcpseg.FlagACK}
	r.pkt.SRH = nil
	r.TB.LB.Handle(&r.pkt)
}

// MeasureSYN runs ops SYN dispatches and returns wall ns per op.
func (r *DispatchRig) MeasureSYN(ops int) float64 {
	t0 := time.Now()
	for i := 0; i < ops; i++ {
		r.SYNOp(i)
	}
	return float64(time.Since(t0)) / float64(ops)
}

// MeasureSteered runs ops steered dispatches over n seeded flows and
// returns wall ns per op. Call SeedFlows(n) first.
func (r *DispatchRig) MeasureSteered(ops, n int) float64 {
	t0 := time.Now()
	for i := 0; i < ops; i++ {
		r.SteerOp(i, n)
	}
	return float64(time.Since(t0)) / float64(ops)
}

// RunVIPScale executes the sweep: for each scheme of VIPScaleSchemes and
// each VIP count it builds a generated topology, measures control-plane
// build time, then the SYN and steered per-packet dispatch costs
// (minimum over vipScaleRounds).
func RunVIPScale(cfg VIPScaleConfig) VIPScaleResult {
	cfg = cfg.withDefaults()
	progress := cfg.Progress
	if progress == nil {
		progress = func(string) {}
	}
	res := VIPScaleResult{VIPCounts: cfg.VIPCounts}
	for _, scheme := range VIPScaleSchemes() {
		for _, v := range cfg.VIPCounts {
			t0 := time.Now()
			rig := NewDispatchRig(cfg.Seed, v, vipScalePools, vipScaleServersPerPool, scheme)
			buildMS := float64(time.Since(t0)) / float64(time.Millisecond)
			rig.SeedFlows(vipScaleWarmFlows)
			// Warm both paths once before timing (first-touch map growth,
			// branch warm-up), then keep the minimum across rounds.
			rig.MeasureSYN(vipScaleOps / 10)
			rig.MeasureSteered(vipScaleOps/10, vipScaleWarmFlows)
			synNs, steerNs := 0.0, 0.0
			for round := 0; round < vipScaleRounds; round++ {
				if s := rig.MeasureSYN(vipScaleOps); round == 0 || s < synNs {
					synNs = s
				}
				if s := rig.MeasureSteered(vipScaleOps, vipScaleWarmFlows); round == 0 || s < steerNs {
					steerNs = s
				}
			}
			row := VIPScaleRow{
				Scheme: scheme.Name, VIPs: v, Pools: vipScalePools,
				BuildMS: buildMS, SYNNs: synNs, SteerNs: steerNs, Ops: vipScaleOps,
			}
			res.Rows = append(res.Rows, row)
			progress(fmt.Sprintf("vipscale %s vips=%d: build %.1f ms, syn %.0f ns/op, steer %.0f ns/op",
				scheme.Name, v, buildMS, synNs, steerNs))
		}
	}
	return res
}

// FlatnessRatio returns the worst (largest-count vs smallest-count)
// dispatch-cost ratio across schemes and both paths — 1.0 is perfectly
// flat; an O(n) structure shows up as ≈ count ratio.
func (r VIPScaleResult) FlatnessRatio() float64 {
	worst := 0.0
	type pair struct{ lo, hi VIPScaleRow }
	byScheme := make(map[string]*pair)
	for _, row := range r.Rows {
		p, ok := byScheme[row.Scheme]
		if !ok {
			p = &pair{lo: row, hi: row}
			byScheme[row.Scheme] = p
			continue
		}
		if row.VIPs < p.lo.VIPs {
			p.lo = row
		}
		if row.VIPs > p.hi.VIPs {
			p.hi = row
		}
	}
	for _, p := range byScheme {
		if p.lo.SYNNs > 0 {
			if ratio := p.hi.SYNNs / p.lo.SYNNs; ratio > worst {
				worst = ratio
			}
		}
		if p.lo.SteerNs > 0 {
			if ratio := p.hi.SteerNs / p.lo.SteerNs; ratio > worst {
				worst = ratio
			}
		}
	}
	return worst
}

// Plot renders the latency-vs-#services figure: one facet per dispatch
// path, VIP count on X (per scheme series) — the eBPF-study shape.
func (r VIPScaleResult) Plot() []plot.Facet {
	paths := []struct {
		title string
		get   func(VIPScaleRow) float64
	}{
		{"VIP scale: SYN dispatch ns/pkt vs #services", func(row VIPScaleRow) float64 { return row.SYNNs }},
		{"VIP scale: steered dispatch ns/pkt vs #services", func(row VIPScaleRow) float64 { return row.SteerNs }},
	}
	facets := make([]plot.Facet, 0, len(paths))
	for _, p := range paths {
		bySeries := make(map[string]*plot.Series)
		var order []string
		for _, row := range r.Rows {
			ser, ok := bySeries[row.Scheme]
			if !ok {
				ser = &plot.Series{Name: row.Scheme}
				bySeries[row.Scheme] = ser
				order = append(order, row.Scheme)
			}
			ser.X = append(ser.X, float64(row.VIPs))
			ser.Y = append(ser.Y, p.get(row))
		}
		series := make([]plot.Series, 0, len(order))
		for _, name := range order {
			series = append(series, *bySeries[name])
		}
		facets = append(facets, plot.Facet{Title: p.title, Series: series})
	}
	return facets
}

// TSV is the sweep as one table, one row per (scheme, VIP count).
func (r VIPScaleResult) TSV() TSV {
	return TSV{Tables: []Table{newTable("vipscale",
		"Per-packet dispatch cost vs advertised service count (wall ns, min over rounds; build is control-plane compile ms)",
		[]column[VIPScaleRow]{
			{"scheme", func(row VIPScaleRow) string { return row.Scheme }},
			{"vips", func(row VIPScaleRow) string { return fmt.Sprint(row.VIPs) }},
			{"pools", func(row VIPScaleRow) string { return fmt.Sprint(row.Pools) }},
			{"build_ms", func(row VIPScaleRow) string { return fmt.Sprintf("%.2f", row.BuildMS) }},
			{"syn_ns", func(row VIPScaleRow) string { return fmt.Sprintf("%.1f", row.SYNNs) }},
			{"steer_ns", func(row VIPScaleRow) string { return fmt.Sprintf("%.1f", row.SteerNs) }},
			{"ops", func(row VIPScaleRow) string { return fmt.Sprint(row.Ops) }},
		}, r.Rows)}}
}
