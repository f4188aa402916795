package core

import (
	"net/netip"
	"testing"

	"srlb/internal/des"
	"srlb/internal/ipv6"
	"srlb/internal/netsim"
	"srlb/internal/packet"
	"srlb/internal/selection"
	"srlb/internal/tcpseg"
)

// scaleAddr derives a deterministic test address in the given /48-ish
// space: 2001:db8:<space>::<i+1>.
func scaleAddr(space byte, i int) netip.Addr {
	a := [16]byte{0x20, 0x01, 0x0d, 0xb8, 0, space}
	n := uint64(i) + 1
	for b := 0; b < 8; b++ {
		a[15-b] = byte(n >> (8 * b))
	}
	return netip.AddrFrom16(a)
}

// scaleVIPList builds n VIPConfigs over the given servers, round-robin
// schemes (deterministic, rng-free) so two independently built LBs pick
// identically for identical packet sequences.
func scaleVIPList(n int, servers []netip.Addr) []VIPConfig {
	list := make([]VIPConfig, n)
	for i := range list {
		list[i] = VIPConfig{Addr: scaleAddr(0xaa, i), Scheme: selection.NewRoundRobin(servers, 2)}
	}
	return list
}

// scaleLB builds a detached LB over a delivery-dropping network: Handle
// runs the full dispatch (including Send's wire check) but
// nothing is ever delivered, so packets can be driven directly.
func scaleLB(cfg Config) *LoadBalancer {
	sim := des.New()
	net := netsim.New(sim, netsim.Config{LossProb: 1})
	return NewDetached(sim, net, cfg)
}

// SeedFlow installs a binding exactly as a learned SYN-ACK would: a
// subsequent client packet steers to the seeded server instead of
// dropping as a miss.
func TestSeedFlowSteersLikeLearned(t *testing.T) {
	g := newRig(t, Config{})
	g.lb.SeedFlow(packet.FlowKey{Src: client, Dst: vip, SrcPort: 47000, DstPort: 80}, sAddr2)
	if g.lb.FlowCount() != 1 {
		t.Fatalf("flow count = %d after seed", g.lb.FlowCount())
	}
	ack := &packet.Packet{
		IP:  ipv6.Header{Src: client, Dst: vip},
		TCP: tcpseg.Segment{SrcPort: 47000, DstPort: 80, Flags: tcpseg.FlagACK},
	}
	g.net.Send(ack)
	g.sim.Run()
	if len(g.s2.pkts) != 1 || len(g.s1.pkts) != 0 {
		t.Fatalf("seeded flow steered to s1=%d s2=%d packets, want s2 only", len(g.s1.pkts), len(g.s2.pkts))
	}
	if g.lb.Counts.Get("miss_dropped") != 0 {
		t.Fatal("seeded flow treated as a miss")
	}
}

// Construction allocation must not scale with VIP count: the compiled
// dispatch table is one slice plus one presized map, and no per-VIP
// metric keys or strings are built. A per-VIP allocation would show up
// here as ~960 extra allocs at 1024 VIPs.
func TestNewDetachedConstantAllocs(t *testing.T) {
	servers := []netip.Addr{sAddr1, sAddr2}
	allocs := func(n int) float64 {
		list := scaleVIPList(n, servers)
		sim := des.New()
		net := netsim.New(sim, netsim.Config{LossProb: 1})
		return testing.AllocsPerRun(10, func() {
			lb := NewDetached(sim, net, Config{Addr: lbAddr, VIPList: list})
			if len(lb.vips) != n {
				t.Fatalf("built %d VIPs, want %d", len(lb.vips), n)
			}
		})
	}
	small, large := allocs(64), allocs(1024)
	t.Logf("NewDetached allocs: %d VIPs → %.0f, %d VIPs → %.0f", 64, small, 1024, large)
	// Slack covers map-bucket granularity between the two presized maps;
	// anything per-VIP blows through it immediately.
	if large > small+16 {
		t.Fatalf("construction allocs scale with VIP count: %.0f at 64 VIPs vs %.0f at 1024", small, large)
	}
}

// VIPList entries are validated: no duplicate and no malformed address.
func TestVIPListValidation(t *testing.T) {
	servers := []netip.Addr{sAddr1, sAddr2}
	scheme := selection.NewRoundRobin(servers, 2)
	for name, cfg := range map[string]Config{
		"duplicate vip": {
			Addr: lbAddr,
			VIPList: []VIPConfig{
				{Addr: scaleAddr(0xaa, 1), Scheme: scheme},
				{Addr: scaleAddr(0xaa, 1), Scheme: scheme},
			},
		},
		"bad vip addr": {
			Addr:    lbAddr,
			VIPList: []VIPConfig{{Scheme: scheme}},
		},
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Fatalf("%s: expected panic", name)
				}
			}()
			scaleLB(cfg)
		}()
	}
}
