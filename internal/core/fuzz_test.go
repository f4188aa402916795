package core

import (
	"maps"
	"net/netip"
	"slices"
	"testing"
	"time"

	"srlb/internal/flowtable"
	"srlb/internal/ipv6"
	"srlb/internal/packet"
	"srlb/internal/rng"
	"srlb/internal/selection"
	"srlb/internal/srv6"
	"srlb/internal/tcpseg"
)

// spyScheme records what the wrapped scheme returned, copied before the
// caller can touch it, so the model knows the candidates without knowing
// the scheme. Embedding the Scheme interface hides any Stateful or
// Resteerer capability: the dispatcher sees a plain scheme.
type spyScheme struct {
	selection.Scheme
	last []netip.Addr
}

func (s *spyScheme) Pick(flow packet.FlowKey) []netip.Addr {
	out := s.Scheme.Pick(flow)
	s.last = slices.Clone(out)
	return out
}

// modelFlow is one binding of the reference flow table.
type modelFlow struct {
	server   netip.Addr
	deadline time.Duration
	closing  bool
}

// modelLB is "what §II says" with a map and deadlines: SYNs of unbound
// flows hunt over the scheme's candidates with the VIP last, SYN-ACKs
// through the LB bind the flow to the server one slot behind the LB and
// reach the client bare, everything else of a bound flow is steered
// [server, VIP], FIN/RST start the linger, and expired state is
// collected on touch and at most once per sweep interval.
type modelLB struct {
	vips                  map[netip.Addr]*VIPConfig
	flows                 map[packet.FlowKey]*modelFlow
	counts                map[string]uint64
	syns                  map[netip.Addr]uint64
	lastSweep             time.Duration
	sweep, idle, finLimit time.Duration
}

// verdict is what the model expects of one Dispatch call.
type verdict struct {
	forward bool
	dst     netip.Addr
	path    []netip.Addr // nil: no SRH
	sl      uint8
}

func (m *modelLB) lookup(now time.Duration, flow packet.FlowKey) (*modelFlow, bool) {
	e, ok := m.flows[flow]
	if ok && now > e.deadline {
		delete(m.flows, flow)
		ok = false
	}
	if ok && !e.closing {
		e.deadline = now + m.idle
	}
	return e, ok
}

func (m *modelLB) drop(key string) verdict { m.counts[key]++; return verdict{} }

func (m *modelLB) dispatch(now time.Duration, pkt *packet.Packet) verdict {
	if now-m.lastSweep >= m.sweep {
		m.lastSweep = now
		maps.DeleteFunc(m.flows, func(_ packet.FlowKey, e *modelFlow) bool { return now > e.deadline })
	}
	if pkt.IP.Dst == lbAddr {
		if pkt.SRH == nil {
			return m.drop("to_lb_no_srh")
		}
		segs, sl := pkt.SRH.Segments, int(pkt.SRH.SegmentsLeft)
		switch {
		case sl >= len(segs) || segs[sl] != lbAddr:
			return m.drop("return_bad_segment")
		case sl+1 >= len(segs):
			return m.drop("return_no_server")
		case sl == 0:
			return m.drop("return_exhausted")
		}
		if pkt.IsSYNACK() {
			m.flows[pkt.Flow().Reverse()] = &modelFlow{server: segs[sl+1], deadline: now + m.idle}
			m.counts["flows_learned"]++
		}
		m.counts["returns_relayed"]++
		return verdict{forward: true, dst: segs[sl-1]}
	}
	vc, ok := m.vips[pkt.IP.Dst]
	if !ok {
		return m.drop("unknown_vip")
	}
	flow := pkt.Flow()
	if pkt.IsSYN() {
		m.syns[vc.Addr]++
		m.counts["syn_rx"]++
		if _, bound := m.lookup(now, flow); !bound {
			cands := vc.Scheme.(*spyScheme).last
			m.counts["hunts_started"]++
			return verdict{forward: true, dst: cands[0], path: append(slices.Clone(cands), vc.Addr), sl: uint8(len(cands))}
		}
		m.counts["syn_rebound"]++
	}
	var server netip.Addr
	if e, bound := m.lookup(now, flow); bound {
		server = e.server
		if fl := pkt.TCP.Flags; (fl.Has(tcpseg.FlagFIN) || fl.Has(tcpseg.FlagRST)) && !e.closing {
			e.closing, e.deadline = true, min(e.deadline, now+m.finLimit)
		}
	} else if vc.Fallback != nil {
		server = vc.Fallback.(*spyScheme).last[0]
		m.counts["miss_fallback"]++
	} else {
		return m.drop("miss_dropped")
	}
	if fl := pkt.TCP.Flags; fl.Has(tcpseg.FlagFIN) || fl.Has(tcpseg.FlagRST) {
		m.counts["closing_observed"]++
	}
	m.counts["steered"]++
	return verdict{forward: true, dst: server, path: []netip.Addr{server, vc.Addr}, sl: 1}
}

// FuzzDispatcher feeds Dispatcher.Dispatch arbitrary interleavings of
// SYN / SYN-ACK / ACK / FIN / RST / duplicate / stray packets over two
// or three VIPs, with clock jumps past the sweep interval, FinLinger and
// IdleTTL, and compares every call with modelLB: the forward verdict,
// the rewritten IP.Dst, the SRH's path and SegmentsLeft — copied out
// before the next call, and required to survive the wire — the number of
// bound flows, every counter and the per-VIP SYN counts. One dispatcher
// serves the simulator and livenet, so this covers both bindings.
//
// Each step is three bytes: operation, flow selector (VIP, client port,
// server), clock jump.
func FuzzDispatcher(f *testing.F) {
	// One connection, its FIN, a packet inside and one past the linger.
	f.Add([]byte{0, 0, 0, 0, 1, 0, 1, 2, 0, 1, 3, 0, 1, 2, 0, 2, 2, 0, 4, 2, 0, 5})
	// A SYN duplicated before the SYN-ACK and retransmitted after it.
	f.Add([]byte{0, 0, 0, 0, 5, 0, 0, 1, 16, 1, 0, 0, 1, 5, 0, 0})
	// Three VIPs; idle expiry; misses on the VIP with a fallback.
	f.Add([]byte{1, 0, 0, 0, 0, 1, 0, 0, 2, 0, 1, 1, 1, 2, 1, 7, 2, 1, 0, 2, 5, 0, 1, 2, 1, 2, 2, 5})
	// Every stray, then an ACK to a VIP nobody advertises.
	f.Add([]byte{0, 6, 0, 0, 7, 0, 0, 8, 0, 0, 9, 0, 0, 10, 0, 0, 11, 0, 0, 2, 2, 0})
	// A FIN's linger runs out between two sweeps: the next lookup finds
	// the entry expired.
	f.Add([]byte{0, 1, 0, 0, 3, 0, 2, 2, 0, 5, 2, 0, 5, 2, 0, 2})
	// RST, then the port comes back inside and past the linger.
	f.Add([]byte{0, 0, 4, 0, 1, 4, 1, 4, 4, 1, 0, 4, 2, 0, 4, 4, 1, 36, 1, 2, 4, 1})
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) == 0 {
			return
		}
		servers := []netip.Addr{sAddr1, sAddr2, ipv6.MustAddr("2001:db8:5::3")}
		vipAddrs := []netip.Addr{vip, ipv6.MustAddr("2001:db8:f00d::2"), ipv6.MustAddr("2001:db8:f00d::3")}
		chash, err := selection.NewConsistentHash(servers, 101)
		if err != nil {
			t.Fatal(err)
		}
		list := []VIPConfig{
			{Addr: vipAddrs[0], Scheme: &spyScheme{Scheme: selection.NewRandom(servers, 2, rng.New(7))}},
			{Addr: vipAddrs[1], Scheme: &spyScheme{Scheme: selection.NewRoundRobin(servers, 2)},
				Fallback: &spyScheme{Scheme: chash}},
			{Addr: vipAddrs[2], Scheme: &spyScheme{Scheme: selection.NewWeightedLeastLoad(servers, 3, rng.New(9), nil)}},
		}[:2+int(data[0])%2]
		const (
			sweep   = time.Second // the dispatcher's sweep interval
			linger  = flowtable.FinLinger
			idleTTL = flowtable.IdleTTL
		)
		d := NewDispatcher(Config{Addr: lbAddr, VIPList: list})
		m := &modelLB{
			vips: map[netip.Addr]*VIPConfig{}, flows: map[packet.FlowKey]*modelFlow{},
			counts: map[string]uint64{}, syns: map[netip.Addr]uint64{},
			sweep: sweep, idle: idleTTL, finLimit: linger,
		}
		for i := range list {
			m.vips[list[i].Addr] = &list[i]
		}
		jumps := []time.Duration{0, time.Millisecond, 100 * time.Millisecond, linger, linger + 1, sweep, idleTTL, idleTTL + 1}

		var now time.Duration
		var prev *packet.Packet // the previous step's packet as it was offered
		for i := 1; i+2 < len(data); i += 3 {
			op, sel := data[i]%12, data[i+1]
			now += jumps[int(data[i+2])%len(jumps)]
			v := vipAddrs[int(sel)%3] // the third VIP is a stray when only two are advertised
			port := uint16(40000 + int(sel>>2)%4)
			server := servers[int(sel>>4)%3]
			fromClient := func(flags tcpseg.Flags) *packet.Packet {
				return &packet.Packet{
					IP:  ipv6.Header{Src: client, Dst: v},
					TCP: tcpseg.Segment{SrcPort: port, DstPort: 80, Flags: flags},
				}
			}
			// viaLB is a server→client packet carrying the given wire-order
			// segment list.
			viaLB := func(flags tcpseg.Flags, sl uint8, wireSegs ...netip.Addr) *packet.Packet {
				return &packet.Packet{
					IP:  ipv6.Header{Src: v, Dst: lbAddr},
					SRH: &srv6.SRH{NextHeader: ipv6.ProtoTCP, SegmentsLeft: sl, Segments: wireSegs},
					TCP: tcpseg.Segment{SrcPort: 80, DstPort: port, Seq: 1, Ack: 1, Flags: flags},
				}
			}
			const synack = tcpseg.FlagSYN | tcpseg.FlagACK
			var pkt *packet.Packet
			switch op {
			case 0:
				pkt = fromClient(tcpseg.FlagSYN)
			case 1:
				pkt = viaLB(synack, 1, client, lbAddr, server)
			case 2:
				pkt = fromClient(tcpseg.FlagACK)
			case 3:
				pkt = fromClient(tcpseg.FlagFIN | tcpseg.FlagACK)
			case 4:
				pkt = fromClient(tcpseg.FlagRST)
			case 5: // duplicate of whatever came last
				if prev == nil {
					continue
				}
				pkt = prev
			case 6: // addressed to the LB, no SRH
				pkt = viaLB(tcpseg.FlagACK, 0)
				pkt.SRH = nil
			case 7: // active segment is not the LB
				pkt = viaLB(synack, 1, client, server, lbAddr)
			case 8: // nobody behind the LB in the list
				pkt = viaLB(synack, 1, client, lbAddr)
			case 9: // the LB is the last segment
				pkt = viaLB(synack, 0, lbAddr, server)
			case 10: // SegmentsLeft past the list
				pkt = viaLB(synack, 3, client, lbAddr, server)
			case 11: // a non-SYN-ACK relayed through the LB: no learning
				pkt = viaLB(tcpseg.FlagACK, 1, client, lbAddr, server)
			}
			prev = pkt.Clone()

			forward := d.Dispatch(now, pkt)
			want := m.dispatch(now, prev.Clone())
			if forward != want.forward {
				t.Fatalf("step %d (op %d at %v): forward = %v, model says %v", i/3, op, now, forward, want.forward)
			}
			if forward {
				var path []netip.Addr
				var sl uint8
				if pkt.SRH != nil {
					path, sl = pkt.SRH.Path(), pkt.SRH.SegmentsLeft
				}
				if pkt.IP.Dst != want.dst || !slices.Equal(path, want.path) || sl != want.sl {
					t.Fatalf("step %d (op %d at %v): dst %v path %v SL %d, model says dst %v path %v SL %d",
						i/3, op, now, pkt.IP.Dst, path, sl, want.dst, want.path, want.sl)
				}
				// A binding copies or serialises the packet before its next
				// Dispatch; what it puts on the wire must be this header.
				wire, err := pkt.Marshal(nil)
				if err != nil {
					t.Fatalf("step %d (op %d): forwarded packet does not marshal: %v", i/3, op, err)
				}
				back, err := packet.Parse(wire, true)
				if err != nil {
					t.Fatalf("step %d (op %d): forwarded packet does not parse: %v", i/3, op, err)
				}
				if (back.SRH == nil) != (want.path == nil) || back.SRH != nil && !slices.Equal(back.SRH.Path(), want.path) {
					t.Fatalf("step %d (op %d): wire carries SRH %v, model says path %v", i/3, op, back.SRH, want.path)
				}
			}
			if got := d.FlowCount(); got != len(m.flows) {
				t.Fatalf("step %d (op %d at %v): %d flows bound, model says %d", i/3, op, now, got, len(m.flows))
			}
			got := map[string]uint64{}
			for _, k := range d.Counts.Keys() {
				got[k] = d.Counts.Get(k)
			}
			if !maps.Equal(got, m.counts) {
				t.Fatalf("step %d (op %d at %v): counters %v, model says %v", i/3, op, now, got, m.counts)
			}
			for _, a := range vipAddrs {
				if d.VIPSYNs(a) != m.syns[a] {
					t.Fatalf("step %d: VIP %v saw %d SYNs, model says %d", i/3, a, d.VIPSYNs(a), m.syns[a])
				}
			}
		}
		// Whatever the interleaving, each bound flow steers to the server
		// the model remembers.
		for flow, e := range m.flows {
			if _, advertised := m.vips[flow.Dst]; !advertised || now > e.deadline {
				continue
			}
			p := &packet.Packet{
				IP:  ipv6.Header{Src: flow.Src, Dst: flow.Dst},
				TCP: tcpseg.Segment{SrcPort: flow.SrcPort, DstPort: flow.DstPort, Flags: tcpseg.FlagACK},
			}
			if !d.Dispatch(now, p) || p.IP.Dst != e.server {
				t.Fatalf("flow %v bound to %v in the model, steered to %v", flow, e.server, p.IP.Dst)
			}
		}
	})
}
