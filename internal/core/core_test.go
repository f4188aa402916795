package core

import (
	"net/netip"
	"testing"
	"time"

	"srlb/internal/des"
	"srlb/internal/flowtable"
	"srlb/internal/ipv6"
	"srlb/internal/netsim"
	"srlb/internal/packet"
	"srlb/internal/rng"
	"srlb/internal/selection"
	"srlb/internal/srv6"
	"srlb/internal/tcpseg"
)

var (
	client = ipv6.MustAddr("2001:db8:c::1")
	lbAddr = ipv6.MustAddr("2001:db8:1b::1")
	sAddr1 = ipv6.MustAddr("2001:db8:5::1")
	sAddr2 = ipv6.MustAddr("2001:db8:5::2")
	vip    = ipv6.MustAddr("2001:db8:f00d::1")
)

type capture struct {
	pkts []*packet.Packet
}

// Clone: the network recycles delivered packets once Handle returns.
func (c *capture) Handle(p *packet.Packet) { c.pkts = append(c.pkts, p.Clone()) }

// rig: LB plus captures at both server addresses and the client.
type rig struct {
	sim    *des.Simulator
	net    *netsim.Network
	lb     *LoadBalancer
	s1, s2 *capture
	cli    *capture
}

func rigScheme() selection.Scheme {
	return selection.NewRandom([]netip.Addr{sAddr1, sAddr2}, 2, rng.New(1))
}

func newRig(t *testing.T, cfg Config) *rig {
	t.Helper()
	sim := des.New()
	net := netsim.New(sim, netsim.Config{VerifyChecksums: true})
	g := &rig{sim: sim, net: net, s1: &capture{}, s2: &capture{}, cli: &capture{}}
	net.Attach(g.s1, sAddr1)
	net.Attach(g.s2, sAddr2)
	net.Attach(g.cli, client)
	if cfg.Addr == (netip.Addr{}) {
		cfg.Addr = lbAddr
	}
	if cfg.VIPList == nil {
		cfg.VIPList = []VIPConfig{{Addr: vip, Scheme: rigScheme()}}
	}
	g.lb = New(sim, net, cfg)
	return g
}

func clientSYN(port uint16) *packet.Packet {
	return &packet.Packet{
		IP:  ipv6.Header{Src: client, Dst: vip},
		TCP: tcpseg.Segment{SrcPort: port, DstPort: 80, Flags: tcpseg.FlagSYN},
	}
}

func TestSYNGetsHuntSRH(t *testing.T) {
	g := newRig(t, Config{})
	g.net.Send(clientSYN(40000))
	g.sim.Run()

	total := len(g.s1.pkts) + len(g.s2.pkts)
	if total != 1 {
		t.Fatalf("servers received %d packets, want 1", total)
	}
	var got *packet.Packet
	if len(g.s1.pkts) == 1 {
		got = g.s1.pkts[0]
	} else {
		got = g.s2.pkts[0]
	}
	if got.SRH == nil {
		t.Fatal("SYN forwarded without SRH")
	}
	if got.SRH.SegmentsLeft != 2 {
		t.Fatalf("SL = %d, want 2", got.SRH.SegmentsLeft)
	}
	final, _ := got.SRH.Final()
	if final != vip {
		t.Fatalf("final segment = %v, want the VIP", final)
	}
	path := got.SRH.Path()
	if len(path) != 3 || path[0] == path[1] {
		t.Fatalf("path = %v", path)
	}
	if got.IP.Dst != path[0] {
		t.Fatalf("dst %v != first segment %v", got.IP.Dst, path[0])
	}
	if g.lb.Counts.Get("hunts_started") != 1 {
		t.Fatal("hunt not counted")
	}
}

// serverSYNACK builds the acceptance packet server s would send.
func serverSYNACK(s netip.Addr, clientPort uint16) *packet.Packet {
	srh := srv6.MustNew(ipv6.ProtoTCP, s, lbAddr, client)
	srh.Advance() // server consumed its own segment; LB active
	return &packet.Packet{
		IP:  ipv6.Header{Src: vip, Dst: lbAddr},
		SRH: srh,
		TCP: tcpseg.Segment{
			SrcPort: 80, DstPort: clientPort, Seq: 1, Ack: 1,
			Flags: tcpseg.FlagSYN | tcpseg.FlagACK,
		},
	}
}

func TestSYNACKLearnsFlowAndStrips(t *testing.T) {
	g := newRig(t, Config{})
	g.net.Send(serverSYNACK(sAddr2, 40000))
	g.sim.Run()

	if len(g.cli.pkts) != 1 {
		t.Fatalf("client received %d packets", len(g.cli.pkts))
	}
	sa := g.cli.pkts[0]
	if sa.SRH != nil {
		t.Fatal("SRH not stripped before the client")
	}
	if !sa.IsSYNACK() {
		t.Fatal("not a SYN-ACK")
	}
	if sa.IP.Src != vip || sa.IP.Dst != client {
		t.Fatalf("addresses = %v -> %v", sa.IP.Src, sa.IP.Dst)
	}
	if g.lb.FlowCount() != 1 {
		t.Fatalf("flow count = %d", g.lb.FlowCount())
	}

	// A subsequent client packet must be steered to sAddr2.
	ack := &packet.Packet{
		IP:  ipv6.Header{Src: client, Dst: vip},
		TCP: tcpseg.Segment{SrcPort: 40000, DstPort: 80, Flags: tcpseg.FlagACK, Payload: []byte("GET /")},
	}
	g.net.Send(ack)
	g.sim.Run()
	if len(g.s2.pkts) != 1 {
		t.Fatalf("server2 received %d packets, want the steered ACK", len(g.s2.pkts))
	}
	steered := g.s2.pkts[0]
	if steered.SRH == nil || steered.SRH.SegmentsLeft != 1 {
		t.Fatalf("steered SRH = %v", steered.SRH)
	}
	final, _ := steered.SRH.Final()
	if final != vip {
		t.Fatal("steered final segment must be the VIP")
	}
	if len(g.s1.pkts) != 0 {
		t.Fatal("wrong server received steered traffic")
	}
}

func TestMidFlowMissDroppedByDefault(t *testing.T) {
	g := newRig(t, Config{})
	ack := &packet.Packet{
		IP:  ipv6.Header{Src: client, Dst: vip},
		TCP: tcpseg.Segment{SrcPort: 41000, DstPort: 80, Flags: tcpseg.FlagACK},
	}
	g.net.Send(ack)
	g.sim.Run()
	if g.lb.Counts.Get("miss_dropped") != 1 {
		t.Fatal("miss not dropped/counted")
	}
	if len(g.s1.pkts)+len(g.s2.pkts) != 0 {
		t.Fatal("miss wrongly forwarded")
	}
}

func TestMidFlowMissFallback(t *testing.T) {
	fallback, err := selection.NewConsistentHash([]netip.Addr{sAddr1, sAddr2}, 101)
	if err != nil {
		t.Fatal(err)
	}
	g := newRig(t, Config{VIPList: []VIPConfig{{Addr: vip, Scheme: rigScheme(), Fallback: fallback}}})
	ack := &packet.Packet{
		IP:  ipv6.Header{Src: client, Dst: vip},
		TCP: tcpseg.Segment{SrcPort: 41000, DstPort: 80, Flags: tcpseg.FlagACK},
	}
	g.net.Send(ack)
	g.sim.Run()
	if g.lb.Counts.Get("miss_fallback") != 1 {
		t.Fatal("fallback not used")
	}
	if len(g.s1.pkts)+len(g.s2.pkts) != 1 {
		t.Fatal("fallback did not forward")
	}
}

func TestFINMarksFlowClosing(t *testing.T) {
	g := newRig(t, Config{})
	g.net.Send(serverSYNACK(sAddr1, 42000))
	g.sim.Run()
	fin := &packet.Packet{
		IP:  ipv6.Header{Src: client, Dst: vip},
		TCP: tcpseg.Segment{SrcPort: 42000, DstPort: 80, Flags: tcpseg.FlagFIN | tcpseg.FlagACK},
	}
	g.net.Send(fin)
	g.sim.Run()
	if g.lb.Counts.Get("closing_observed") != 1 {
		t.Fatal("FIN not observed")
	}
	// After the linger a sweep must reclaim the flow.
	g.sim.RunUntil(g.sim.Now() + flowtable.FinLinger + time.Second)
	g.lb.SweepNow()
	if g.lb.FlowCount() != 0 {
		t.Fatalf("flow count = %d after linger+sweep", g.lb.FlowCount())
	}
}

func TestSweepReclaimsIdleFlows(t *testing.T) {
	g := newRig(t, Config{})
	g.net.Send(serverSYNACK(sAddr1, 43000))
	g.sim.Run()
	if g.lb.FlowCount() != 1 {
		t.Fatal("flow not installed")
	}
	// Any datapath activity after the TTL triggers the opportunistic sweep.
	g.sim.RunUntil(flowtable.IdleTTL + 2*time.Second)
	g.net.Send(clientSYN(44000))
	g.sim.Run()
	if g.lb.FlowCount() != 0 {
		t.Fatalf("idle flow survived: count=%d", g.lb.FlowCount())
	}
	if g.lb.FlowStats().Expiries == 0 {
		t.Fatal("no expiries recorded")
	}
}

func TestOpportunisticSweepRateLimited(t *testing.T) {
	g := newRig(t, Config{})
	// Many packets inside one interval: lastSweep must only advance once.
	for i := 0; i < 5; i++ {
		g.net.Send(clientSYN(uint16(45000 + i)))
	}
	g.sim.Run()
	if g.lb.lastSweep != 0 && g.lb.lastSweep > 100*time.Millisecond {
		t.Fatalf("sweep timestamp advanced unexpectedly: %v", g.lb.lastSweep)
	}
}

func TestUnknownVIPCounted(t *testing.T) {
	g := newRig(t, Config{})
	other := ipv6.MustAddr("2001:db8:f00d::99")
	p := &packet.Packet{
		IP:  ipv6.Header{Src: client, Dst: other},
		TCP: tcpseg.Segment{SrcPort: 1, DstPort: 80, Flags: tcpseg.FlagSYN},
	}
	// Not attached to the LB: send directly through Handle to exercise the
	// guard (the LAN would never deliver it).
	g.lb.Handle(p)
	if g.lb.Counts.Get("unknown_vip") != 1 {
		t.Fatal("unknown VIP not counted")
	}
}

func TestReturnPathValidation(t *testing.T) {
	g := newRig(t, Config{})
	// SRH whose active segment is NOT the LB: must be rejected.
	srh := srv6.MustNew(ipv6.ProtoTCP, sAddr1, client)
	bad := &packet.Packet{
		IP:  ipv6.Header{Src: vip, Dst: lbAddr},
		SRH: srh,
		TCP: tcpseg.Segment{SrcPort: 80, DstPort: 1, Flags: tcpseg.FlagSYN | tcpseg.FlagACK},
	}
	g.lb.Handle(bad)
	if g.lb.Counts.Get("return_bad_segment") != 1 {
		t.Fatal("bad return segment not rejected")
	}
	// Packet to the LB without SRH.
	plain := &packet.Packet{
		IP:  ipv6.Header{Src: vip, Dst: lbAddr},
		TCP: tcpseg.Segment{SrcPort: 80, DstPort: 1, Flags: tcpseg.FlagACK},
	}
	g.lb.Handle(plain)
	if g.lb.Counts.Get("to_lb_no_srh") != 1 {
		t.Fatal("plain LB packet not counted")
	}
}

func TestConfigValidation(t *testing.T) {
	sim := des.New()
	net := netsim.New(sim, netsim.Config{})
	for name, cfg := range map[string]Config{
		"no vips":  {Addr: lbAddr},
		"bad addr": {VIPList: []VIPConfig{{Addr: vip}}},
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Fatalf("%s: expected panic", name)
				}
			}()
			New(sim, net, cfg)
		}()
	}
}

func TestNonSYNACKReturnRelayedWithoutLearning(t *testing.T) {
	// A server could route other packets through the LB (not in the
	// normal protocol, but must not corrupt state): they relay without a
	// flow-table insert.
	g := newRig(t, Config{})
	srh := srv6.MustNew(ipv6.ProtoTCP, sAddr1, lbAddr, client)
	srh.Advance()
	p := &packet.Packet{
		IP:  ipv6.Header{Src: vip, Dst: lbAddr},
		SRH: srh,
		TCP: tcpseg.Segment{SrcPort: 80, DstPort: 5, Flags: tcpseg.FlagACK},
	}
	g.net.Send(p)
	g.sim.Run()
	if g.lb.FlowCount() != 0 {
		t.Fatal("non-SYN-ACK return installed flow state")
	}
	if len(g.cli.pkts) != 1 {
		t.Fatal("return packet not relayed")
	}
}
