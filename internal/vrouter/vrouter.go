// Package vrouter implements the per-server virtual router of the paper
// (§II-A): the component that, on each compute node, dispatches packets
// between the (simulated) NIC and the application-bound virtual interface,
// and executes the Service Hunting decision.
//
// In the paper this is a VPP plugin colocated with the Apache server
// agent; here it is a packet-handler state machine attached to the
// simulated LAN. Its behavior, per Algorithms 1–2:
//
//   - Packet with SegmentsLeft ≥ 2 addressed to this server: a *choice*
//     offer. Consult the local agent policy; accept ⇒ deliver to the
//     application (SL := 0, dst := VIP); refuse ⇒ advance the SR list and
//     forward to the next candidate.
//   - Packet with SegmentsLeft = 1: penultimate segment — the application
//     "must not refuse" (satisfiability guarantee). Deliver.
//   - Packet without SRH (or SL = 0) addressed to a local VIP: a steered
//     packet of an established flow. Deliver.
//
// On acceptance of a connection (SYN), the server replies with a SYN-ACK
// carrying an SRH [self, LB, client]: the LB, as penultimate segment,
// learns which server accepted and installs flow state (paper figure 1).
package vrouter

import (
	"fmt"
	"net/netip"
	"time"

	"srlb/internal/agent"
	"srlb/internal/appserver"
	"srlb/internal/des"
	"srlb/internal/ipv6"
	"srlb/internal/metrics"
	"srlb/internal/netsim"
	"srlb/internal/packet"
	"srlb/internal/srv6"
	"srlb/internal/tcpseg"
)

// DemandFn computes the CPU demand of a request from its flow key and
// request payload. The testbed encodes the demand in the request bytes
// (the paper's PHP busy-loop duration); the Wikipedia workload instead
// derives it from the URL and the server-local cache state.
type DemandFn func(flow packet.FlowKey, payload []byte) time.Duration

// Config assembles a server node.
type Config struct {
	// Addr is the server's physical address (the SR segment).
	Addr netip.Addr
	// VIPs are the virtual service addresses this server hosts.
	VIPs []netip.Addr
	// LB is the load balancer address, used to route SYN-ACKs through it.
	LB netip.Addr
	// Policy is the connection-acceptance policy (agent).
	Policy agent.Policy
	// Server is the application instance model.
	Server *appserver.Server
	// Demand computes CPU demand per request.
	Demand DemandFn
}

// conn tracks one accepted connection through its request/response cycle.
//
// Ownership: conns are recycled through Router.free with their callback
// bound once per object. A conn goes back to the list at exactly two
// points — its offer was not Admitted (nothing else ever saw it), or its
// own linger runs (the application's completion has fired by then, and
// no other event names it). Never at the port-reuse delete in acceptSYN:
// that incarnation's linger is still pending and compares
// r.conns[c.flow] with c.
type conn struct {
	flow      packet.FlowKey
	requested bool // request payload received
	ready     bool // service complete, response awaiting the request
	closed    bool // response sent; lingering to absorb late packets

	// event is the conn's one callback: the application calls it when
	// service completes, and CloseLinger after the response it is the
	// linger timer. The completion always comes first and only the
	// response sets closed, which tells the two calls apart — one closure
	// instead of two, because a free list pins what it holds.
	event func()
	next  *conn // free-list link
}

// CloseLinger is how long connection state is retained after the response
// is sent, absorbing in-flight client packets (TIME_WAIT in miniature —
// without it, a request shorter than the handshake RTT would see its own
// trailing ACK answered with an RST).
const CloseLinger = time.Second

// Router is the virtual router + application agent of one server.
type Router struct {
	cfg     Config
	sim     *des.Simulator
	net     *netsim.Network
	vips    map[netip.Addr]bool
	conns   map[packet.FlowKey]*conn
	free    *conn // recycled conns, see conn
	vipResp map[netip.Addr]uint64
	down    bool
	Counts  *metrics.Counter

	// synack is the SYN-ACK header [self, LB, client], rewritten in place
	// per SYN-ACK (Send has copied or serialised it before it returns, so
	// nothing else reads it).
	synack srv6.SRH
}

// responseBody is every response's payload; read-only.
var responseBody = []byte("HTTP/1.1 200 OK\r\n\r\n")

// New builds the router and attaches it to the network under its physical
// address and its VIPs.
func New(sim *des.Simulator, net *netsim.Network, cfg Config) *Router {
	if cfg.Policy == nil || cfg.Server == nil || cfg.Demand == nil {
		panic("vrouter: Policy, Server and Demand are required")
	}
	if err := ipv6.CheckAddr(cfg.Addr); err != nil {
		panic(fmt.Sprintf("vrouter: bad addr: %v", err))
	}
	r := &Router{
		cfg:     cfg,
		sim:     sim,
		net:     net,
		vips:    make(map[netip.Addr]bool, len(cfg.VIPs)),
		conns:   make(map[packet.FlowKey]*conn),
		vipResp: make(map[netip.Addr]uint64, len(cfg.VIPs)),
		Counts:  metrics.NewCounter(),
	}
	for _, v := range cfg.VIPs {
		r.vips[v] = true
	}
	net.Attach(r, cfg.Addr)
	return r
}

// Addr returns the server's physical address.
func (r *Router) Addr() netip.Addr { return r.cfg.Addr }

// Server returns the application instance model.
func (r *Router) Server() *appserver.Server { return r.cfg.Server }

// Policy returns the acceptance policy (for telemetry).
func (r *Router) Policy() agent.Policy { return r.cfg.Policy }

// OpenConns returns the number of tracked connections.
func (r *Router) OpenConns() int { return len(r.conns) }

// VIPResponses returns the number of responses this server has emitted
// for connections of the given VIP. Every response is attributed to
// exactly one VIP (the connection's flow destination), so on a shared
// pool the per-VIP counts sum to the responses_tx total — the busy-time
// attribution ledger of multi-service servers.
func (r *Router) VIPResponses(vip netip.Addr) uint64 { return r.vipResp[vip] }

// SetDown marks the server failed (true) or recovered (false) — the
// fail-stop model of the topology lifecycle events. A down router
// ignores all delivered traffic and suppresses responses for work its
// application finishes while dark; connection state is retained, so a
// recovered server silently absorbs (rather than RSTs) stragglers of
// flows it accepted before going down.
func (r *Router) SetDown(down bool) { r.down = down }

// Down reports whether the router is failed.
func (r *Router) Down() bool { return r.down }

// Handle implements netsim.Node.
func (r *Router) Handle(pkt *packet.Packet) {
	if r.down {
		r.Counts.Inc("down_rx")
		return
	}
	if pkt.SRH != nil && pkt.IP.Dst == r.cfg.Addr {
		r.handleSegment(pkt)
		return
	}
	// No SRH (or SRH already consumed): steered packet for a local flow.
	r.deliverLocal(pkt)
}

// handleSegment executes SR endpoint processing for the active segment.
func (r *Router) handleSegment(pkt *packet.Packet) {
	switch {
	case pkt.SRH.SegmentsLeft >= 2:
		// A real choice: first (or middle) candidate in the hunt.
		if pkt.IsSYN() {
			r.Counts.Inc("hunt_offers")
			if r.cfg.Policy.Accept(r.cfg.Server) {
				r.Counts.Inc("hunt_accepts")
				r.acceptSYN(pkt)
				return
			}
			r.Counts.Inc("hunt_refusals")
			r.forwardNext(pkt)
			return
		}
		// Non-SYN with a choice segment: not part of the hunt protocol;
		// behave as a plain SR transit node.
		r.forwardNext(pkt)

	case pkt.SRH.SegmentsLeft == 1:
		// Penultimate segment: must not refuse (paper §II-A).
		if pkt.IsSYN() {
			r.Counts.Inc("forced_accepts")
			r.acceptSYN(pkt)
			return
		}
		r.deliverLocal(pkt)

	default: // SegmentsLeft == 0
		r.deliverLocal(pkt)
	}
}

// acceptSYN admits the connection into the application (or RSTs on
// overflow) and emits the SYN-ACK through the load balancer.
func (r *Router) acceptSYN(pkt *packet.Packet) {
	flow := pkt.Flow()
	if c, dup := r.conns[flow]; dup {
		if c.closed {
			// Port reuse onto a lingering closed connection: the old
			// incarnation is done, treat this as a fresh connection.
			delete(r.conns, flow)
		} else {
			// Duplicate SYN (retransmit after accept): re-send SYN-ACK.
			r.Counts.Inc("dup_syn")
			r.sendSYNACK(pkt, flow)
			return
		}
	}
	demand := r.cfg.Demand(flow, pkt.TCP.Payload)
	c := r.newConn(flow)
	verdict := r.cfg.Server.Offer(demand, c.event)
	switch verdict {
	case appserver.Admitted:
		r.conns[flow] = c
		r.sendSYNACK(pkt, flow)
	case appserver.Rejected:
		// tcp_abort_on_overflow: RST straight back to the client.
		r.release(c)
		r.Counts.Inc("rst_overflow")
		r.sendRST(pkt)
	case appserver.DroppedSilently:
		r.release(c)
		r.Counts.Inc("syn_dropped")
	}
}

// newConn takes a conn from the free list, or builds one and binds its
// callback.
func (r *Router) newConn(flow packet.FlowKey) *conn {
	c := r.free
	if c == nil {
		c = new(conn)
		c.event = func() {
			if !c.closed {
				r.respond(c)
				return
			}
			if r.conns[c.flow] == c {
				delete(r.conns, c.flow)
			}
			r.release(c)
		}
	} else {
		r.free = c.next
	}
	c.flow, c.requested, c.ready, c.closed = flow, false, false, false
	return c
}

func (r *Router) release(c *conn) { c.next, r.free = r.free, c }

// sendSYNACK replies to a SYN with an SRH [self, LB, client] so the LB
// learns which server accepted (figure 1: SYN-ACK {a, S2, LB, c}).
func (r *Router) sendSYNACK(pkt *packet.Packet, flow packet.FlowKey) {
	srh := &r.synack
	if err := srh.SetPath(ipv6.ProtoTCP, r.cfg.Addr, r.cfg.LB, flow.Src); err != nil {
		panic(fmt.Sprintf("vrouter: SYN-ACK SRH: %v", err))
	}
	// The server is the first segment and the packet originates here, so
	// that segment is already consumed: the LB is the active one.
	srh.SegmentsLeft = 1
	reply := &packet.Packet{
		IP: ipv6.Header{
			Src: flow.Dst, // the VIP: the client must see the service address
			Dst: r.cfg.LB, // through the LB
		},
		SRH: srh,
		TCP: tcpseg.Segment{
			SrcPort: flow.DstPort,
			DstPort: flow.SrcPort,
			Seq:     1,
			Ack:     pkt.TCP.Seq + 1,
			Flags:   tcpseg.FlagSYN | tcpseg.FlagACK,
		},
	}
	r.Counts.Inc("synack_tx")
	r.net.Send(reply)
}

// sendRST refuses the connection (backlog overflow) directly to the
// client — the paper's tcp_abort_on_overflow behavior.
func (r *Router) sendRST(pkt *packet.Packet) {
	flow := pkt.Flow()
	rst := &packet.Packet{
		IP: ipv6.Header{Src: flow.Dst, Dst: flow.Src},
		TCP: tcpseg.Segment{
			SrcPort: flow.DstPort,
			DstPort: flow.SrcPort,
			Ack:     pkt.TCP.Seq + 1,
			Flags:   tcpseg.FlagRST | tcpseg.FlagACK,
		},
	}
	r.net.Send(rst)
}

// deliverLocal hands a steered packet to the local application instance.
func (r *Router) deliverLocal(pkt *packet.Packet) {
	flow := pkt.Flow()
	if !r.vips[flow.Dst] {
		r.Counts.Inc("not_local")
		return
	}
	c, ok := r.conns[flow]
	if !ok {
		// Data for a flow we never accepted (e.g. stale steering after a
		// table eviction). A real stack would RST; count it.
		r.Counts.Inc("no_conn")
		r.sendRST(pkt)
		return
	}
	if c.closed {
		// Late packet for an answered connection (the response overtook
		// the client's ACK): absorb silently, like TIME_WAIT.
		r.Counts.Inc("late_rx")
		return
	}
	if len(pkt.TCP.Payload) > 0 && !c.requested {
		// The request payload has arrived; service is already queued (the
		// demand was committed at accept time — Apache's worker model
		// reads the request once a worker picks the connection up).
		c.requested = true
		r.Counts.Inc("requests_rx")
		if c.ready {
			// Service finished before the request landed (sub-RTT demand):
			// the response was held for causality; release it now.
			r.emitResponse(c)
		}
	}
	if pkt.TCP.Flags.Has(tcpseg.FlagFIN) {
		// Client closed; server side will close after responding. Nothing
		// to do in the model: conn state is removed on respond().
		r.Counts.Inc("fin_rx")
	}
}

// respond fires when the application finishes computing the response. A
// server cannot answer a request it has not yet received, so if the
// (simulated, accept-time-started) service finished before the request
// payload landed, the response is held until deliverLocal releases it.
func (r *Router) respond(c *conn) {
	cur, live := r.conns[c.flow]
	if !live || cur != c || c.closed || r.down {
		return
	}
	if !c.requested {
		c.ready = true
		return
	}
	r.emitResponse(c)
}

// emitResponse sends the response data + FIN directly to the client
// (direct server return — the LB is not on the return path, §II-A) and
// schedules conn-state teardown after the linger.
func (r *Router) emitResponse(c *conn) {
	c.closed = true
	r.sim.ScheduleAfter(CloseLinger, c.event)
	resp := &packet.Packet{
		IP: ipv6.Header{Src: c.flow.Dst, Dst: c.flow.Src},
		TCP: tcpseg.Segment{
			SrcPort: c.flow.DstPort,
			DstPort: c.flow.SrcPort,
			Seq:     2,
			Ack:     2,
			Flags:   tcpseg.FlagPSH | tcpseg.FlagACK | tcpseg.FlagFIN,
			Payload: responseBody,
		},
	}
	r.Counts.Inc("responses_tx")
	r.vipResp[c.flow.Dst]++
	r.net.Send(resp)
}

// forwardNext advances the SR list and forwards to the next segment.
// The delivered packet is owned by this node (netsim.Node contract), so
// it is advanced in place rather than cloned.
func (r *Router) forwardNext(pkt *packet.Packet) {
	next, err := pkt.SRH.Advance()
	if err != nil {
		r.Counts.Inc("srh_exhausted")
		return
	}
	pkt.IP.Dst = next
	pkt.IP.HopLimit--
	if pkt.IP.HopLimit == 0 {
		r.Counts.Inc("hoplimit_exceeded")
		return
	}
	r.Counts.Inc("forwarded")
	r.net.Send(pkt)
}

var _ netsim.Node = (*Router)(nil)
