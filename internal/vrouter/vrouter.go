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

	"srlb/internal/addrtab"
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
	// VIPs holds the service addresses this server hosts, by position. A
	// pool's servers share it read-only: VIP state is pools × VIPs.
	VIPs *addrtab.Table
	// LB is the load balancer address, used to route SYN-ACKs through it.
	LB netip.Addr
	// Policy is the connection-acceptance policy (agent).
	Policy agent.Policy
	// Server is the application instance model.
	Server *appserver.Server
	// Demand prices each request, one entry per VIP: Demand[v] is the
	// cost model of the VIP at position v in VIPs.
	Demand []DemandFn
}

// conn tracks one accepted connection through its request/response cycle.
//
// Ownership: conns are recycled through Router.free with their callback
// and their id in Router.conns (which holds the flow) bound once per
// object. A conn goes back to the list at exactly two points — its offer
// was not Admitted (nothing else ever saw it), or its own linger runs
// (the application's completion has fired by then, and no other event
// names it). Never at the port-reuse delete in acceptSYN: that
// incarnation's linger is still pending and asks whether c.id is filed.
type conn struct {
	id        int32
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

// A Router's counters, by slot; counterSchema names them.
const (
	cntDownRx = iota
	cntHuntOffers
	cntHuntAccepts
	cntHuntRefusals
	cntForcedAccepts
	cntDupSYN
	cntRSTOverflow
	cntSYNDropped
	cntSYNACKTx
	cntNotLocal
	cntNoConn
	cntLateRx
	cntRequestsRx
	cntFINRx
	cntResponsesTx
	cntSRHExhausted
	cntHopLimitExceeded
	cntForwarded
)

var counterSchema = metrics.NewSchema([]string{
	cntDownRx: "down_rx", cntHuntOffers: "hunt_offers", cntHuntAccepts: "hunt_accepts",
	cntHuntRefusals: "hunt_refusals", cntForcedAccepts: "forced_accepts", cntDupSYN: "dup_syn",
	cntRSTOverflow: "rst_overflow", cntSYNDropped: "syn_dropped", cntSYNACKTx: "synack_tx",
	cntNotLocal: "not_local", cntNoConn: "no_conn", cntLateRx: "late_rx", cntRequestsRx: "requests_rx",
	cntFINRx: "fin_rx", cntResponsesTx: "responses_tx", cntSRHExhausted: "srh_exhausted",
	cntHopLimitExceeded: "hoplimit_exceeded", cntForwarded: "forwarded",
})

// Router is the virtual router + application agent of one server.
type Router struct {
	cfg    Config
	sim    *des.Simulator
	net    *netsim.Network
	conns  addrtab.FlowIndex[*conn] // admitted conns by flow
	free   *conn                    // recycled conns, see conn
	down   bool
	Counts *metrics.Counter

	// synack is the SYN-ACK header [self, LB, client], rewritten in place
	// per SYN-ACK (Send has copied or serialised it before it returns, so
	// nothing else reads it).
	synack srv6.SRH
}

// responseBody is every response's payload; read-only.
var responseBody = []byte("HTTP/1.1 200 OK\r\n\r\n")

// New builds the router and attaches it to the network under its physical
// address, cfg.Addr.
func New(sim *des.Simulator, net *netsim.Network, cfg Config) *Router {
	if cfg.Policy == nil || cfg.Server == nil || cfg.VIPs == nil || len(cfg.Demand) != cfg.VIPs.Len() {
		panic("vrouter: Policy, Server, VIPs and one Demand per VIP are required")
	}
	if err := ipv6.CheckAddr(cfg.Addr); err != nil {
		panic(fmt.Sprintf("vrouter: bad addr: %v", err))
	}
	r := &Router{
		cfg:    cfg,
		sim:    sim,
		net:    net,
		conns:  addrtab.NewFlowIndex[*conn](),
		Counts: counterSchema.NewCounter(),
	}
	net.Attach(r, cfg.Addr)
	return r
}

// Addr returns the server's physical address.
func (r *Router) Addr() netip.Addr { return r.cfg.Addr }

// Server returns the application instance model.
func (r *Router) Server() *appserver.Server { return r.cfg.Server }

// OpenConns returns the number of tracked connections.
func (r *Router) OpenConns() int { return r.conns.Len() }

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
		r.Counts.Add(cntDownRx, 1)
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
			r.Counts.Add(cntHuntOffers, 1)
			if r.cfg.Policy.Accept(r.cfg.Server) {
				r.Counts.Add(cntHuntAccepts, 1)
				r.acceptSYN(pkt)
				return
			}
			r.Counts.Add(cntHuntRefusals, 1)
			r.forwardNext(pkt)
			return
		}
		// Non-SYN with a choice segment: not part of the hunt protocol;
		// behave as a plain SR transit node.
		r.forwardNext(pkt)

	case pkt.SRH.SegmentsLeft == 1:
		// Penultimate segment: must not refuse (paper §II-A).
		if pkt.IsSYN() {
			r.Counts.Add(cntForcedAccepts, 1)
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
	vip, local := r.cfg.VIPs.Lookup(flow.Dst)
	if !local {
		// Unreachable: schemes select within their VIP's pool. A drop would
		// leave the accept counted with no connection, so fail loudly.
		panic(fmt.Sprintf("vrouter: server %v asked to accept a flow for unknown VIP %v", r.cfg.Addr, flow.Dst))
	}
	if id := r.conns.Find(&flow); id >= 0 {
		if r.conns.Object(id).closed {
			// Port reuse onto a lingering closed connection: the old
			// incarnation is done, treat this as a fresh connection.
			r.conns.Delete(id)
		} else {
			// Duplicate SYN (retransmit after accept): re-send SYN-ACK.
			r.Counts.Add(cntDupSYN, 1)
			r.sendSYNACK(pkt, flow)
			return
		}
	}
	demand := r.cfg.Demand[vip](flow, pkt.TCP.Payload)
	c := r.newConn()
	verdict := r.cfg.Server.Offer(demand, c.event)
	switch verdict {
	case appserver.Admitted:
		r.conns.Add(c.id, &flow)
		r.sendSYNACK(pkt, flow)
	case appserver.Rejected:
		// tcp_abort_on_overflow: RST straight back to the client.
		r.release(c)
		r.Counts.Add(cntRSTOverflow, 1)
		r.sendRST(pkt)
	case appserver.DroppedSilently:
		r.release(c)
		r.Counts.Add(cntSYNDropped, 1)
	}
}

// newConn takes a conn from the free list, or builds one, numbers it and
// binds its callback.
func (r *Router) newConn() *conn {
	c := r.free
	if c == nil {
		c = &conn{}
		c.id = r.conns.NewID(c)
		c.event = func() {
			if !c.closed {
				r.respond(c)
				return
			}
			if r.conns.Filed(c.id) {
				r.conns.Delete(c.id)
			}
			r.release(c)
		}
	} else {
		r.free = c.next
	}
	c.requested, c.ready, c.closed = false, false, false
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
	r.Counts.Add(cntSYNACKTx, 1)
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
	if _, local := r.cfg.VIPs.Lookup(flow.Dst); !local {
		r.Counts.Add(cntNotLocal, 1)
		return
	}
	id := r.conns.Find(&flow)
	if id < 0 {
		// Data for a flow we never accepted (e.g. stale steering after a
		// table eviction). A real stack would RST; count it.
		r.Counts.Add(cntNoConn, 1)
		r.sendRST(pkt)
		return
	}
	c := r.conns.Object(id)
	if c.closed {
		// Late packet for an answered connection (the response overtook
		// the client's ACK): absorb silently, like TIME_WAIT.
		r.Counts.Add(cntLateRx, 1)
		return
	}
	if len(pkt.TCP.Payload) > 0 && !c.requested {
		// The request payload has arrived; service is already queued (the
		// demand was committed at accept time — Apache's worker model
		// reads the request once a worker picks the connection up).
		c.requested = true
		r.Counts.Add(cntRequestsRx, 1)
		if c.ready {
			// Service finished before the request landed (sub-RTT demand):
			// the response was held for causality; release it now.
			r.emitResponse(c)
		}
	}
	if pkt.TCP.Flags.Has(tcpseg.FlagFIN) {
		// Client closed; server side will close after responding. Nothing
		// to do in the model: conn state is removed on respond().
		r.Counts.Add(cntFINRx, 1)
	}
}

// respond fires when the application finishes computing the response. A
// server cannot answer a request it has not yet received, so if the
// (simulated, accept-time-started) service finished before the request
// payload landed, the response is held until deliverLocal releases it.
func (r *Router) respond(c *conn) {
	if !r.conns.Filed(c.id) || c.closed || r.down {
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
	flow := r.conns.Key(c.id)
	resp := &packet.Packet{
		IP: ipv6.Header{Src: flow.Dst, Dst: flow.Src},
		TCP: tcpseg.Segment{
			SrcPort: flow.DstPort,
			DstPort: flow.SrcPort,
			Seq:     2,
			Ack:     2,
			Flags:   tcpseg.FlagPSH | tcpseg.FlagACK | tcpseg.FlagFIN,
			Payload: responseBody,
		},
	}
	r.Counts.Add(cntResponsesTx, 1)
	r.net.Send(resp)
}

// forwardNext advances the SR list and forwards to the next segment.
// The delivered packet is owned by this node (netsim.Node contract), so
// it is advanced in place rather than cloned.
func (r *Router) forwardNext(pkt *packet.Packet) {
	next, err := pkt.SRH.Advance()
	if err != nil {
		r.Counts.Add(cntSRHExhausted, 1)
		return
	}
	pkt.IP.Dst = next
	pkt.IP.HopLimit--
	if pkt.IP.HopLimit == 0 {
		r.Counts.Add(cntHopLimitExceeded, 1)
		return
	}
	r.Counts.Add(cntForwarded, 1)
	r.net.Send(pkt)
}

var _ netsim.Node = (*Router)(nil)
