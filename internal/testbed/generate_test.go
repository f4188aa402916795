package testbed

import (
	"fmt"
	"maps"
	"net/netip"
	"testing"
	"time"

	"srlb/internal/ipv6"
	"srlb/internal/rng"
)

// Generated topologies are plain declarative Topologies: defaulted
// shape, index-deterministic addresses, round-robin pool assignment.
func TestGenerateTopologyShape(t *testing.T) {
	top := GenerateTopology(GenSpec{Seed: 7, VIPs: 1000})
	if got := len(top.Pools); got != 16 {
		t.Fatalf("1000 VIPs defaulted to %d pools, want 16", got)
	}
	if got := len(top.VIPs); got != 1000 {
		t.Fatalf("generated %d VIPs, want 1000", got)
	}
	for v, spec := range top.VIPs {
		if spec.Addr != VIPAddr(v) {
			t.Fatalf("VIP %d addr = %v, want VIPAddr = %v", v, spec.Addr, VIPAddr(v))
		}
		if want := v % 16; spec.Pool != want {
			t.Fatalf("VIP %d pool = %d, want %d", v, spec.Pool, want)
		}
	}
	for p, ps := range top.Pools {
		if ps.Servers != 12 {
			t.Fatalf("pool %d has %d servers, want 12", p, ps.Servers)
		}
	}
	if err := top.Validate(); err != nil {
		t.Fatalf("generated topology invalid: %v", err)
	}
	// Pool-count defaults: capped at 64, clamped to the VIP count.
	if got := len(GenerateTopology(GenSpec{VIPs: 10000}).Pools); got != 64 {
		t.Fatalf("10000 VIPs defaulted to %d pools, want the 64 cap", got)
	}
	if got := len(GenerateTopology(GenSpec{VIPs: 3}).Pools); got != 1 {
		t.Fatalf("3 VIPs defaulted to %d pools, want 1", got)
	}
	func() {
		defer func() {
			if recover() == nil {
				t.Fatal("GenSpec without VIPs must panic")
			}
		}()
		GenerateTopology(GenSpec{})
	}()
}

// The arithmetic address derivation must match the historical sprintf
// forms hextet for hextet wherever those forms are representable — the
// generator leans on this to stay byte-compatible with hand-declared
// topologies.
func TestGeneratedAddressArithmetic(t *testing.T) {
	for _, i := range []int{0, 1, 31, 63, 64, 255, 4095, 0xfffe} {
		if got, want := ServerAddr(i), ipv6.MustAddr(fmt.Sprintf("2001:db8:5::%x", i+1)); got != want {
			t.Fatalf("ServerAddr(%d) = %v, want %v", i, got, want)
		}
		if got, want := ClientAddr(i), ipv6.MustAddr(fmt.Sprintf("2001:db8:c::%x", i+1)); got != want {
			t.Fatalf("ClientAddr(%d) = %v, want %v", i, got, want)
		}
		if i == 0 {
			if VIPAddr(0) != VIP {
				t.Fatalf("VIPAddr(0) = %v, want the legacy VIP %v", VIPAddr(0), VIP)
			}
		} else if got, want := VIPAddr(i), ipv6.MustAddr(fmt.Sprintf("2001:db8:f00d::%x", i+1)); got != want {
			t.Fatalf("VIPAddr(%d) = %v, want %v", i, got, want)
		}
	}
	for _, c := range []struct{ a, b int }{{0, 0}, {1, 0}, {2, 11}, {63, 255}, {1000, 5}} {
		if got, want := SharedPoolServerAddr(c.a, c.b), ipv6.MustAddr(fmt.Sprintf("2001:db8:5:%x::%x", c.a, c.b+1)); got != want {
			t.Fatalf("SharedPoolServerAddr(%d, %d) = %v, want %v", c.a, c.b, got, want)
		}
	}
	// Beyond-hextet tails walk the /64 instead of overflowing into
	// neighboring hextets.
	if got, want := VIPAddr(0xffff+40), ipv6.MustAddr("2001:db8:f00d::1:28"); got != want {
		t.Fatalf("VIPAddr past the hextet = %v, want %v", got, want)
	}
}

// generatedParityDigest drives a downsampled (64-VIP) generated
// topology end to end — indexed dispatch, shared pools, shared Maglev
// fallbacks, pool lifecycle churn — and fingerprints every
// client-observed Result. The pinned digest is the generated-topology
// counterpart of TestImplicitPoolCompiledParity: any perturbation of
// the generator's addressing, the VIPList compile, or the dispatch
// streams shows up here.
func generatedParityDigest() uint64 {
	top := GenerateTopology(GenSpec{
		Seed:           211,
		VIPs:           64,
		Pools:          4,
		ServersPerPool: 6,
		Fallback:       testFallback,
	})
	top.Span = time.Second
	top.Events = []Event{
		DrainServer(0.15, 0, 1),
		AddServer(0.3, 2),
		failServer(0.45, 1, 0),
	}
	tb := Build(top)
	results := collect(tb)
	r := rng.Split(211, 0xd1ce)
	p := rng.NewPoisson(rng.Split(211, 0xa17), 1500, 0)
	for i := 0; i < 1500; i++ {
		at := p.Next()
		q := Query{ID: uint64(i), VIP: tb.VIPAddrOf(i % 64), Demand: rng.Exp(r, 8*time.Millisecond)}
		tb.Sim.At(at, func() { tb.Gen.Launch(q) })
	}
	tb.Sim.Run()
	tb.Gen.DrainPending()
	return resultsDigest(*results)
}

func TestGeneratedTopologyParity(t *testing.T) {
	const want = uint64(0x54a2d24135704dd9)
	if got := generatedParityDigest(); got != want {
		t.Fatalf("generated topology digest = %#x, want %#x — the generator or indexed dispatch perturbed the streams", got, want)
	}
}

// A 1k-VIP generated topology compiles, shares pool servers across the
// VIPs assigned to each pool, and dispatches for every service.
func TestGenerate1kBuildSmoke(t *testing.T) {
	top := GenerateTopology(GenSpec{Seed: 9, VIPs: 1000})
	tb := Build(top)
	if got := len(tb.LB.Addrs()) - 1; got != 1000 { // its own address, then one per VIP
		t.Fatalf("LB advertises %d VIPs, want 1000", got)
	}
	if got := len(tb.Servers); got != 16*12 {
		t.Fatalf("built %d servers, want %d — pools duplicated per VIP?", got, 16*12)
	}
	// VIPs 16 apart share a pool; adjacent VIPs do not.
	if top.VIPs[0].Pool != top.VIPs[16].Pool {
		t.Fatal("VIPs 0 and 16 do not share their pool")
	}
	if top.VIPs[0].Pool == top.VIPs[1].Pool {
		t.Fatal("VIPs 0 and 1 share a pool but are assigned round-robin to different ones")
	}
}

// Pool lifecycle events on a generated topology drive the shared pool
// once for every service riding it, and the per-VIP query accounting
// conserves: Offered == OK + Refused + Unfinished for every one of the
// 192 services after the run drains. Events are fractions of the
// arrival span, the workload path's form.
func TestGeneratedPoolEventsConservation(t *testing.T) {
	const (
		vips = 192
		n    = vips * 12
		step = time.Millisecond
	)
	span := time.Duration(n) * step
	top := GenerateTopology(GenSpec{
		Seed:           31,
		VIPs:           vips,
		Pools:          3,
		ServersPerPool: 6,
	})
	top.Span = span
	top.Events = []Event{DrainServer(0.3, 0, 0), failServer(0.5, 0, 1)}
	tb := Build(top)
	sink := NewSketchSink(0)
	tb.Gen.Sink = sink
	offered := tapCandidates(tb.Net, span/2)
	r := rng.Split(31, 0x5eed)
	for i := 0; i < n; i++ {
		q := Query{ID: uint64(i), VIP: tb.VIPAddrOf(i % vips), Demand: rng.Exp(r, 4*time.Millisecond)}
		tb.Sim.At(time.Duration(i)*step, func() { tb.Gen.Launch(q) })
	}
	tb.Sim.Run()
	tb.Gen.DrainPending()

	// After the fail genpool-0's services are offered its last four
	// servers: 6 - 1 drained - 1 failed.
	want := map[netip.Addr]bool{}
	for i := 2; i < 6; i++ {
		want[SharedPoolServerAddr(0, i)] = true
	}
	if got := offered[tb.VIPAddrOf(0)]; !maps.Equal(got, want) {
		t.Fatalf("genpool-0 candidates after the fail = %v, want %v", got, want)
	}
	total := sink.Total().Counters
	if total.Offered != n {
		t.Fatalf("offered %d queries, want %d", total.Offered, n)
	}
	if total.OK+total.Refused+total.Unfinished != total.Offered {
		t.Fatalf("total conservation broken: %d OK + %d refused + %d unfinished != %d offered",
			total.OK, total.Refused, total.Unfinished, total.Offered)
	}
	perVIP := sink.VIPs()
	if len(perVIP) != vips {
		t.Fatalf("sink saw %d VIPs, want %d", len(perVIP), vips)
	}
	for _, vs := range perVIP {
		c := vs.Counters
		if c.Offered != n/vips {
			t.Fatalf("VIP %v offered %d, want %d", vs.VIP, c.Offered, n/vips)
		}
		if c.OK+c.Refused+c.Unfinished != c.Offered {
			t.Fatalf("VIP %v conservation broken: %d+%d+%d != %d", vs.VIP, c.OK, c.Refused, c.Unfinished, c.Offered)
		}
		if c.OK == 0 {
			t.Fatalf("VIP %v completed nothing — churn starved a whole service", vs.VIP)
		}
	}
}
