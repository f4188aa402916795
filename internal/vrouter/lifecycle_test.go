package vrouter

import (
	"fmt"
	"net/netip"
	"slices"
	"strings"
	"testing"
	"time"

	"srlb/internal/agent"
	"srlb/internal/appserver"
	"srlb/internal/des"
	"srlb/internal/ipv6"
	"srlb/internal/netsim"
	"srlb/internal/packet"
	"srlb/internal/srv6"
	"srlb/internal/tcpseg"
)

const (
	ms = time.Millisecond
	us = time.Microsecond
)

// forcedSYN is a SYN on its must-accept leg (SRH [s1, VIP], SL=1) from
// the given client port, carrying its demand in milliseconds.
func forcedSYN(port uint16, demandMs byte) *packet.Packet {
	return &packet.Packet{
		IP:  ipv6.Header{Src: client, Dst: sAddr1},
		SRH: srv6.MustNew(ipv6.ProtoTCP, sAddr1, vip),
		TCP: tcpseg.Segment{SrcPort: port, DstPort: 80, Flags: tcpseg.FlagSYN, Payload: []byte{demandMs}},
	}
}

// steered is a mid-flow packet as the LB emits it; a payload makes it
// the request.
func steered(port uint16, flags tcpseg.Flags, payload string) *packet.Packet {
	return &packet.Packet{
		IP:  ipv6.Header{Src: client, Dst: sAddr1},
		SRH: srv6.MustNew(ipv6.ProtoTCP, sAddr1, vip),
		TCP: tcpseg.Segment{SrcPort: port, DstPort: 80, Seq: 1, Ack: 2, Flags: flags, Payload: []byte(payload)},
	}
}

// TestConnLifecycle pins, per scenario, every packet one router emits
// (arrival time at the LB or the client, flags, ports, header) and its
// final counters. The expectations were recorded from the router that
// allocated a conn and two closures per connection; a router that
// recycles them must reproduce them to the byte.
func TestConnLifecycle(t *testing.T) {
	type step struct {
		at time.Duration
		do func(g *rig)
	}
	send := func(at time.Duration, p *packet.Packet) step {
		return step{at, func(g *rig) { g.net.Send(p) }}
	}
	oneWorker := appserver.Config{Workers: 1, Cores: 1, Backlog: 0, AbortOnOverflow: true}
	for _, tc := range []struct {
		name     string
		cfg      appserver.Config
		steps    []step
		emitted  []string
		counters string
		open     int // tracked connections when the run has drained
	}{
		{
			// Port 40000 is answered, then reused while its first
			// incarnation lingers; a second connection opens right behind
			// it. When the first incarnation's linger fires at 1.005 s it
			// must remove nothing: both later connections were answered at
			// 0.7 s and linger themselves, so an ACK at 1.2 s is absorbed
			// and only one at 1.8 s finds no connection.
			name: "port reuse onto a lingering connection, then the old linger fires",
			cfg:  appserver.Default(),
			steps: []step{
				send(0, forcedSYN(40000, 5)),
				send(1*ms, steered(40000, tcpseg.FlagACK|tcpseg.FlagPSH, "GET /")),
				send(500*ms, forcedSYN(40000, 200)),
				send(501*ms, forcedSYN(40001, 200)),
				send(502*ms, steered(40000, tcpseg.FlagACK|tcpseg.FlagPSH, "GET /")),
				send(502*ms, steered(40001, tcpseg.FlagACK|tcpseg.FlagPSH, "GET /")),
				{1100 * ms, func(g *rig) {
					if got := g.r1.OpenConns(); got != 2 {
						panic(fmt.Sprintf("%d connections tracked after the old linger, want 2", got))
					}
				}},
				send(1200*ms, steered(40001, tcpseg.FlagACK, "")),
				send(1800*ms, steered(40001, tcpseg.FlagACK, "")),
			},
			emitted: []string{
				"100µs lb 80>40000 SYN|ACK SRH[2001:db8:5::1 -> *2001:db8:1b::1 -> 2001:db8:c::1] SL=1 len=0",
				"5.1ms client 80>40000 ACK|FIN|PSH len=19",
				"500.1ms lb 80>40000 SYN|ACK SRH[2001:db8:5::1 -> *2001:db8:1b::1 -> 2001:db8:c::1] SL=1 len=0",
				"501.1ms lb 80>40001 SYN|ACK SRH[2001:db8:5::1 -> *2001:db8:1b::1 -> 2001:db8:c::1] SL=1 len=0",
				"700.1ms client 80>40000 ACK|FIN|PSH len=19",
				"701.1ms client 80>40001 ACK|FIN|PSH len=19",
				"1.8001s client 80>40001 ACK|RST len=0",
			},
			counters: "forced_accepts=3 late_rx=1 no_conn=1 requests_rx=3 responses_tx=3 synack_tx=3",
		},
		{
			// A retransmitted SYN is answered again without a second
			// admission while the connection is open — also once service
			// has finished but the request has not arrived — and starts a
			// fresh connection once the response is out.
			name: "duplicate SYN before and after completion",
			cfg:  appserver.Default(),
			steps: []step{
				send(0, forcedSYN(40000, 1)),
				send(500*us, forcedSYN(40000, 1)),
				send(5*ms, forcedSYN(40000, 1)),
				send(6*ms, steered(40000, tcpseg.FlagACK|tcpseg.FlagPSH, "GET /")),
				send(10*ms, forcedSYN(40000, 1)),
			},
			emitted: []string{
				"100µs lb 80>40000 SYN|ACK SRH[2001:db8:5::1 -> *2001:db8:1b::1 -> 2001:db8:c::1] SL=1 len=0",
				"600µs lb 80>40000 SYN|ACK SRH[2001:db8:5::1 -> *2001:db8:1b::1 -> 2001:db8:c::1] SL=1 len=0",
				"5.1ms lb 80>40000 SYN|ACK SRH[2001:db8:5::1 -> *2001:db8:1b::1 -> 2001:db8:c::1] SL=1 len=0",
				"6.1ms client 80>40000 ACK|FIN|PSH len=19",
				"10.1ms lb 80>40000 SYN|ACK SRH[2001:db8:5::1 -> *2001:db8:1b::1 -> 2001:db8:c::1] SL=1 len=0",
			},
			counters: "dup_syn=2 forced_accepts=4 requests_rx=1 responses_tx=1 synack_tx=4",
			open:     1, // the last incarnation never sends its request
		},
		{
			// The application finishes while the router is dark: the
			// response is suppressed, the state stays, and after recovery
			// stragglers are absorbed and a retransmitted SYN is a
			// duplicate, not a new admission.
			name: "SetDown across a completion",
			cfg:  appserver.Default(),
			steps: []step{
				send(0, forcedSYN(40000, 5)),
				send(1*ms, steered(40000, tcpseg.FlagACK|tcpseg.FlagPSH, "GET /")),
				{2 * ms, func(g *rig) { g.r1.SetDown(true) }},
				send(3*ms, steered(40000, tcpseg.FlagACK, "")),
				{10 * ms, func(g *rig) { g.r1.SetDown(false) }},
				send(11*ms, steered(40000, tcpseg.FlagACK|tcpseg.FlagFIN, "")),
				send(12*ms, forcedSYN(40000, 5)),
			},
			emitted: []string{
				"100µs lb 80>40000 SYN|ACK SRH[2001:db8:5::1 -> *2001:db8:1b::1 -> 2001:db8:c::1] SL=1 len=0",
				"12.1ms lb 80>40000 SYN|ACK SRH[2001:db8:5::1 -> *2001:db8:1b::1 -> 2001:db8:c::1] SL=1 len=0",
			},
			counters: "down_rx=1 dup_syn=1 fin_rx=1 forced_accepts=2 requests_rx=1 synack_tx=2",
			open:     1,
		},
		{
			// One worker, no backlog: the second SYN is refused with an
			// RST and leaves no state; once the worker is free the same
			// port is admitted.
			name: "Rejected verdict",
			cfg:  oneWorker,
			steps: []step{
				send(0, forcedSYN(40000, 5)),
				send(1*ms, forcedSYN(40001, 5)),
				send(2*ms, steered(40000, tcpseg.FlagACK|tcpseg.FlagPSH, "GET /")),
				send(8*ms, forcedSYN(40001, 5)),
				send(9*ms, steered(40001, tcpseg.FlagACK|tcpseg.FlagPSH, "GET /")),
			},
			emitted: []string{
				"100µs lb 80>40000 SYN|ACK SRH[2001:db8:5::1 -> *2001:db8:1b::1 -> 2001:db8:c::1] SL=1 len=0",
				"1.1ms client 80>40001 ACK|RST len=0",
				"5.1ms client 80>40000 ACK|FIN|PSH len=19",
				"8.1ms lb 80>40001 SYN|ACK SRH[2001:db8:5::1 -> *2001:db8:1b::1 -> 2001:db8:c::1] SL=1 len=0",
				"13.1ms client 80>40001 ACK|FIN|PSH len=19",
			},
			counters: "forced_accepts=3 requests_rx=2 responses_tx=2 rst_overflow=1 synack_tx=2",
		},
		{
			// The same overflow without tcp_abort_on_overflow: silence.
			name: "DroppedSilently verdict",
			cfg:  appserver.Config{Workers: 1, Cores: 1},
			steps: []step{
				send(0, forcedSYN(40000, 5)),
				send(1*ms, forcedSYN(40001, 5)),
				send(2*ms, steered(40001, tcpseg.FlagACK|tcpseg.FlagPSH, "GET /")),
			},
			emitted: []string{
				"100µs lb 80>40000 SYN|ACK SRH[2001:db8:5::1 -> *2001:db8:1b::1 -> 2001:db8:c::1] SL=1 len=0",
				"2.1ms client 80>40001 ACK|RST len=0",
			},
			counters: "forced_accepts=2 no_conn=1 syn_dropped=1 synack_tx=1",
			open:     1, // port 40000 never sends its request
		},
		{
			// Service shorter than the handshake: the response is held
			// until the request lands, then leaves at once.
			name: "sub-RTT demand: ready before requested",
			cfg:  appserver.Default(),
			steps: []step{
				send(0, forcedSYN(40000, 0)),
				send(1*ms, steered(40000, tcpseg.FlagACK, "")),
				send(2*ms, steered(40000, tcpseg.FlagACK|tcpseg.FlagPSH, "GET /")),
				send(3*ms, steered(40000, tcpseg.FlagACK|tcpseg.FlagFIN, "")),
			},
			emitted: []string{
				"100µs lb 80>40000 SYN|ACK SRH[2001:db8:5::1 -> *2001:db8:1b::1 -> 2001:db8:c::1] SL=1 len=0",
				"2.1ms client 80>40000 ACK|FIN|PSH len=19",
			},
			counters: "forced_accepts=1 late_rx=1 requests_rx=1 responses_tx=1 synack_tx=1",
		},
	} {
		t.Run(tc.name, func(t *testing.T) {
			g := newRig(t, agent.Always{}, nil, tc.cfg)
			var emitted []string
			g.net.AddTap(func(at time.Duration, dst netip.Addr, p *packet.Packet) {
				if dst == sAddr1 {
					return
				}
				who, srh := "client", ""
				if dst == lbAddr {
					who = "lb"
				}
				if p.SRH != nil {
					srh = " " + p.SRH.String()
				}
				emitted = append(emitted, fmt.Sprintf("%v %s %d>%d %v%s len=%d",
					at, who, p.TCP.SrcPort, p.TCP.DstPort, p.TCP.Flags, srh, len(p.TCP.Payload)))
			})
			for _, s := range tc.steps {
				g.sim.Schedule(s.at, func() { s.do(g) })
			}
			g.sim.Run()
			if !slices.Equal(emitted, tc.emitted) {
				t.Errorf("emitted:\n  %s\nwant:\n  %s", strings.Join(emitted, "\n  "), strings.Join(tc.emitted, "\n  "))
			}
			var counters []string
			for _, k := range g.r1.Counts.Keys() {
				counters = append(counters, fmt.Sprintf("%s=%d", k, g.r1.Counts.Get(k)))
			}
			if got := strings.Join(counters, " "); got != tc.counters {
				t.Errorf("counters: %s\nwant:     %s", got, tc.counters)
			}
			if got := g.r1.OpenConns(); got != tc.open {
				t.Errorf("%d connections tracked after the run drained, want %d", got, tc.open)
			}
		})
	}
}

// TestWarmConnectionAllocatesNothing: on a router that has served one
// connection, the next — SYN, admission, SYN-ACK, request, completion,
// response, linger — costs no heap object: the conn and its callback
// are recycled, and so is the application's request.
func TestWarmConnectionAllocatesNothing(t *testing.T) {
	sim := des.New()
	net := netsim.New(sim, netsim.Config{})
	var synacks, responses int
	net.Attach(netsim.NodeFunc(func(*packet.Packet) { synacks++ }), lbAddr)
	net.Attach(netsim.NodeFunc(func(*packet.Packet) { responses++ }), client)
	r := New(sim, net, Config{
		Addr: sAddr1, VIPs: oneVIP(), LB: lbAddr,
		Policy: agent.Always{}, Server: appserver.New(sim, "s1", appserver.Default()), Demand: []DemandFn{demandFromPayload},
	})
	syn, req := forcedSYN(40000, 5), steered(40000, tcpseg.FlagACK|tcpseg.FlagPSH, "GET /")
	connection := func() {
		net.Send(syn)
		sim.RunFor(ms)
		net.Send(req)
		sim.RunFor(2 * CloseLinger)
	}
	connection()
	if n := testing.AllocsPerRun(50, connection); n != 0 {
		t.Errorf("warm connection: %v allocs, want 0", n)
	}
	if synacks != 52 || responses != 52 || r.OpenConns() != 0 {
		t.Fatalf("%d SYN-ACKs, %d responses, %d connections left; want 52, 52, 0", synacks, responses, r.OpenConns())
	}
}
