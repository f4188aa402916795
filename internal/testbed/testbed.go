// Package testbed composes the paper's experimental platform (§IV): a
// traffic generator and load balancer on one side, and N application
// servers (12 in the paper) on the other, all bridged on one simulated
// link. It is the harness every experiment and example builds on.
//
// The traffic generator measures client-side response times exactly as
// the paper does: from first SYN transmission to receipt of the response
// payload. Connections refused via RST (backlog overflow with
// tcp_abort_on_overflow) are recorded as failures, not response times.
package testbed

import (
	"encoding/binary"
	"fmt"
	"net/netip"
	"slices"
	"time"

	"srlb/internal/addrtab"
	"srlb/internal/appserver"
	"srlb/internal/core"
	"srlb/internal/des"
	"srlb/internal/feedback"
	"srlb/internal/ipv6"
	"srlb/internal/metrics"
	"srlb/internal/netsim"
	"srlb/internal/packet"
	"srlb/internal/tcpseg"
	"srlb/internal/vrouter"
)

// Well-known testbed addresses.
var (
	// VIP is the virtual service address the LB advertises.
	VIP = ipv6.MustAddr("2001:db8:f00d::1")
	// LBAddr is the load balancer's own address.
	LBAddr = ipv6.MustAddr("2001:db8:1b::1")
)

// addrWithTail returns base with its low 64 bits set to tail — the
// arithmetic equivalent of formatting "<prefix>::%x" for hextet-sized
// indices, and the only form that stays valid past 0xffff (where the
// single hextet of the string form would overflow). Every indexed
// testbed address — ServerAddr, ClientAddr, VIPAddr,
// SharedPoolServerAddr — is derived this way: no parsing, no
// allocation, no table.
func addrWithTail(base netip.Addr, tail uint64) netip.Addr {
	a := base.As16()
	a[8] = byte(tail >> 56)
	a[9] = byte(tail >> 48)
	a[10] = byte(tail >> 40)
	a[11] = byte(tail >> 32)
	a[12] = byte(tail >> 24)
	a[13] = byte(tail >> 16)
	a[14] = byte(tail >> 8)
	a[15] = byte(tail)
	return netip.AddrFrom16(a)
}

// Address-space bases for the arithmetic derivations.
var (
	serverBase = ipv6.MustAddr("2001:db8:5::")
	clientBase = ipv6.MustAddr("2001:db8:c::")
	vipBase    = ipv6.MustAddr("2001:db8:f00d::")
)

// ServerAddr returns the physical address of server i (0-based).
func ServerAddr(i int) netip.Addr { return addrWithTail(serverBase, uint64(i)+1) }

// ClientAddr returns the address of client source j (0-based).
func ClientAddr(j int) netip.Addr { return addrWithTail(clientBase, uint64(j)+1) }

// Query is one HTTP request to be issued by the traffic generator.
type Query struct {
	// ID is a caller-chosen identifier, echoed in the Result.
	ID uint64
	// VIP, when valid, addresses the query to that service; the zero
	// value targets the topology's first VIP (the legacy behavior).
	VIP netip.Addr
	// Demand is the request's CPU cost. When the per-server DemandFn is
	// the default, this value is carried in the request bytes and used
	// verbatim — so a query costs the same no matter which server wins
	// the hunt, enabling paired comparisons across policies.
	Demand time.Duration
	// URL travels in the request payload; workload-specific DemandFns
	// (the Wikipedia model) derive per-server cost from it.
	URL string
	// Class is an opaque workload tag (e.g. static vs wiki page).
	Class uint8
}

// Result reports the fate of a query.
type Result struct {
	ID    uint64
	Class uint8
	// VIP is the service address the query targeted — the per-service
	// demultiplexing key of multi-VIP workloads.
	VIP      netip.Addr
	IssuedAt time.Duration
	// RT is the client-observed response time (SYN → response payload).
	RT time.Duration
	// OK is true when the response arrived; false when the connection
	// was refused (RST) or still pending at simulation end.
	OK bool
	// Refused is true when the failure was an explicit RST.
	Refused bool
}

// appendPayload packs a query descriptor into request bytes, appended to
// dst: 8-byte big-endian demand (ns) followed by the URL.
func appendPayload(dst []byte, q Query) []byte {
	var hdr [8]byte
	binary.BigEndian.PutUint64(hdr[:], uint64(q.Demand))
	dst = append(dst, hdr[:]...)
	return append(dst, q.URL...)
}

// DecodePayload recovers (demand, url) from request bytes.
func DecodePayload(b []byte) (time.Duration, string) {
	if len(b) < 8 {
		return 0, ""
	}
	return time.Duration(binary.BigEndian.Uint64(b)), string(b[8:])
}

// DefaultDemand is the vrouter DemandFn that trusts the encoded demand —
// the Poisson/PHP workload of §V, where cost is intrinsic to the query.
func DefaultDemand(_ packet.FlowKey, payload []byte) time.Duration {
	d, _ := DecodePayload(payload)
	return d
}

// Testbed is a fully wired cluster.
type Testbed struct {
	Sim *des.Simulator
	Net *netsim.Network
	// LB is the first (for single-LB topologies, the only) replica; LBs
	// holds all of them.
	LB  *core.LoadBalancer
	LBs []*core.LoadBalancer
	// Routers and Servers list every pool member ever built, pool by
	// pool, in construction order (servers added by Events append).
	Routers []*vrouter.Router
	Servers []*appserver.Server
	Gen     *Generator
	// Feedback is replica 0's load-report view — each replica owns its
	// own subscription (FeedbackOf reaches the others); nil unless
	// Topology.Feedback.Enabled.
	Feedback *feedback.View

	vips     []*vipState
	pools    []*poolState // in Topology.Pools order
	replicas []*replicaState
}

// BusyCounts returns the current busy-worker count of every server — the
// instantaneous load vector of figure 4.
func (tb *Testbed) BusyCounts() []int {
	out := make([]int, len(tb.Servers))
	for i, s := range tb.Servers {
		out[i] = s.BusyWorkers()
	}
	return out
}

// SampleLoads invokes fn(now, busy) every interval until the given end.
func (tb *Testbed) SampleLoads(interval, until time.Duration, fn func(now time.Duration, busy []int)) {
	var tick func()
	tick = func() {
		fn(tb.Sim.Now(), tb.BusyCounts())
		if tb.Sim.Now()+interval <= until {
			tb.Sim.After(interval, tick)
		}
	}
	tb.Sim.After(interval, tick)
}

// The Generator's counters, by slot; counterSchema names them.
const (
	cntQueriesLaunched = iota
	cntSYNTimeout
	cntSYNRetransmits
	cntStrayRx
	cntRefused
	cntSYNACKRx
	cntResponsesRx
	cntCloseAcksTx
	cntOtherRx
)

var counterSchema = metrics.NewSchema([]string{
	cntQueriesLaunched: "queries_launched", cntSYNTimeout: "syn_timeout",
	cntSYNRetransmits: "syn_retransmits", cntStrayRx: "stray_rx", cntRefused: "refused",
	cntSYNACKRx: "synack_rx", cntResponsesRx: "responses_rx", cntCloseAcksTx: "close_acks_tx",
	cntOtherRx: "other_rx",
})

// Generator is the traffic source: it opens one TCP connection per query
// through the LB and measures client-side response times.
//
// Measurement modes (combinable):
//   - Sink: streaming per-VIP sketches in constant memory — the default
//     path for experiment cells (see SketchSink).
//   - OnResult: a per-result callback for custom accounting.
type Generator struct {
	sim      *des.Simulator
	net      *netsim.Network
	vip      netip.Addr // default target (the topology's first VIP)
	addrs    []netip.Addr
	nextPort []uint32
	pending  addrtab.FlowIndex[*pendingQuery] // in-flight queries by flow
	launched int                              // queries launched, the next one's seq
	freePQ   *pendingQuery                    // recycled pendingQuery structs
	// Sink, when non-nil, is offered every launched query and every
	// terminal outcome — the constant-memory measurement path.
	Sink *SketchSink
	// RetransmitRTO enables client SYN retransmission with exponential
	// backoff (initial timeout RetransmitRTO, doubling, synMaxTries
	// attempts). Zero disables it — the paper's default, since
	// tcp_abort_on_overflow is enabled precisely so that "application
	// response delays are measured, and not possible TCP SYN retransmit
	// delays" (§IV-C). Enable it together with AbortOnOverflow=false to
	// reproduce the behavior the paper avoided.
	RetransmitRTO time.Duration
	// CloseAck makes the client acknowledge the response with a final
	// ACK+FIN. Off by default: the legacy client sends nothing after
	// its request, and the extra frame would shift the shared network
	// rng stream of every pinned experiment. Flowlet-grained policies
	// enable it — the close-ACK arrives a service time after the
	// request, so it is the one steered packet that naturally crosses
	// flowlet-gap boundaries.
	CloseAck bool
	OnResult func(Result)
	Counts   *metrics.Counter
	nextSrc  int
	scratch  packet.Packet // reused for outbound SYN/ACK frames
}

type pendingQuery struct {
	q       Query
	sentAt  time.Duration
	id      int32 // in Generator.pending, which holds the flow
	tries   int
	seq     int // launch order
	rto     *des.Timer
	payload []byte        // encoded request bytes, reused across sends
	next    *pendingQuery // free-list link
}

func newGenerator(sim *des.Simulator, net *netsim.Network, clients int, vip netip.Addr) *Generator {
	g := &Generator{
		sim:      sim,
		net:      net,
		vip:      vip,
		addrs:    make([]netip.Addr, clients),
		nextPort: make([]uint32, clients),
		pending:  addrtab.NewFlowIndex[*pendingQuery](),
		Counts:   counterSchema.NewCounter(),
	}
	for j := 0; j < clients; j++ {
		g.addrs[j] = ClientAddr(j)
		g.nextPort[j] = 1024
		net.Attach(g, g.addrs[j])
	}
	return g
}

// Launch issues query q now: allocates a fresh flow and sends the SYN.
// The query descriptor rides in the SYN payload (a stand-in for TCP Fast
// Open / early data that keeps the simulated exchange single-round-trip;
// the request is re-sent on the post-handshake ACK for protocol fidelity).
func (g *Generator) Launch(q Query) {
	src := g.nextSrc
	g.nextSrc = (g.nextSrc + 1) % len(g.addrs)
	dst := q.VIP
	if !dst.IsValid() {
		dst = g.vip
	}
	// A client's ports wrap after 64512 launches, possibly onto flows
	// that are still pending — a burst of silently dropped SYNs leaves a
	// run of consecutive ones behind. Take the next free port: reusing a
	// pending flow would orphan the older query.
	const ports = 64512
	flow := packet.FlowKey{Src: g.addrs[src], Dst: dst, DstPort: 80}
	for skipped := 0; ; skipped++ {
		if skipped == ports {
			panic(fmt.Sprintf("testbed: all %d source ports of client %v have a pending query", ports, flow.Src))
		}
		flow.SrcPort = uint16(g.nextPort[src]%ports + 1024)
		g.nextPort[src]++
		if g.pending.Find(&flow) < 0 {
			break
		}
	}
	pq := g.getPQ()
	pq.q, pq.sentAt, pq.tries, pq.seq = q, g.sim.Now(), 1, g.launched
	g.launched++
	pq.payload = appendPayload(pq.payload[:0], q)
	g.pending.Add(pq.id, &flow)
	g.Counts.Add(cntQueriesLaunched, 1)
	if g.Sink != nil {
		g.Sink.Offer(dst)
	}
	g.send(flow, 0, 0, tcpseg.FlagSYN, pq.payload)
	g.armRTO(pq, g.RetransmitRTO)
}

// getPQ pops (or allocates) a pendingQuery. Recycling is safe because
// finish and DrainPending cancel the query's RTO timer before returning
// the struct, so no live closure can observe a reused pendingQuery.
func (g *Generator) getPQ() *pendingQuery {
	if pq := g.freePQ; pq != nil {
		g.freePQ = pq.next
		pq.next = nil
		return pq
	}
	pq := &pendingQuery{}
	pq.id = g.pending.NewID(pq)
	return pq
}

func (g *Generator) putPQ(pq *pendingQuery) {
	pq.q = Query{}
	pq.rto = nil
	pq.next = g.freePQ
	g.freePQ = pq
}

// send transmits one client segment of flow from the scratch packet. It
// is safe to reuse: netsim.Send has copied or serialised what it needs
// before it returns and retains nothing, and an inbound packet is a
// distinct struct owned by its Handle call.
func (g *Generator) send(flow packet.FlowKey, seq, ack uint32, flags tcpseg.Flags, payload []byte) {
	g.scratch = packet.Packet{
		IP: ipv6.Header{Src: flow.Src, Dst: flow.Dst},
		TCP: tcpseg.Segment{
			SrcPort: flow.SrcPort, DstPort: flow.DstPort,
			Seq: seq, Ack: ack, Flags: flags, Payload: payload,
		},
	}
	g.net.Send(&g.scratch)
}

// synMaxTries bounds a query's SYN transmissions when RetransmitRTO > 0.
const synMaxTries = 4

// armRTO schedules a SYN retransmission, doubling the timeout each try —
// the behavior tcp_abort_on_overflow exists to keep out of the paper's
// measurements.
func (g *Generator) armRTO(pq *pendingQuery, rto time.Duration) {
	if g.RetransmitRTO <= 0 {
		return
	}
	pq.rto = g.sim.After(rto, func() {
		if !g.pending.Filed(pq.id) {
			return // already finished
		}
		if pq.tries >= synMaxTries {
			g.Counts.Add(cntSYNTimeout, 1)
			g.finish(pq, Result{
				ID: pq.q.ID, Class: pq.q.Class, IssuedAt: pq.sentAt,
				RT: g.sim.Now() - pq.sentAt, OK: false,
			})
			return
		}
		pq.tries++
		g.Counts.Add(cntSYNRetransmits, 1)
		g.send(g.pending.Key(pq.id), 0, 0, tcpseg.FlagSYN, pq.payload)
		g.armRTO(pq, 2*rto)
	})
}

// Handle implements netsim.Node: the client side of every connection.
func (g *Generator) Handle(pkt *packet.Packet) {
	flow := packet.FlowKey{
		Src: pkt.IP.Dst, Dst: pkt.IP.Src,
		SrcPort: pkt.TCP.DstPort, DstPort: pkt.TCP.SrcPort,
	}
	id := g.pending.Find(&flow)
	if id < 0 {
		g.Counts.Add(cntStrayRx, 1)
		return
	}
	pq := g.pending.Object(id)
	switch {
	case pkt.TCP.Flags.Has(tcpseg.FlagRST):
		g.Counts.Add(cntRefused, 1)
		g.finish(pq, Result{
			ID: pq.q.ID, Class: pq.q.Class, IssuedAt: pq.sentAt,
			RT: g.sim.Now() - pq.sentAt, OK: false, Refused: true,
		})
	case pkt.IsSYNACK():
		g.Counts.Add(cntSYNACKRx, 1)
		// Complete the handshake and (re-)send the request bytes.
		g.send(flow, 1, pkt.TCP.Seq+1, tcpseg.FlagACK|tcpseg.FlagPSH, pq.payload)
	case len(pkt.TCP.Payload) > 0 || pkt.TCP.Flags.Has(tcpseg.FlagFIN):
		// The response.
		g.Counts.Add(cntResponsesRx, 1)
		if g.CloseAck {
			// Close the connection actively: the ACK+FIN travels the
			// steered path through the LB (marking the flow closing
			// there), and — arriving a full service time after the
			// request — is the packet flowlet policies see at a
			// boundary. The response time was measured above; whatever
			// server the FIN lands on cannot change the outcome.
			g.Counts.Add(cntCloseAcksTx, 1)
			g.send(flow, 2, pkt.TCP.Seq+1, tcpseg.FlagACK|tcpseg.FlagFIN, nil)
		}
		g.finish(pq, Result{
			ID: pq.q.ID, Class: pq.q.Class, IssuedAt: pq.sentAt,
			RT: g.sim.Now() - pq.sentAt, OK: true,
		})
	default:
		g.Counts.Add(cntOtherRx, 1)
	}
}

func (g *Generator) finish(pq *pendingQuery, res Result) {
	res.VIP = g.pending.Key(pq.id).Dst
	g.pending.Delete(pq.id)
	if pq.rto != nil {
		g.sim.Cancel(pq.rto)
		pq.rto = nil
	}
	g.record(res)
	g.putPQ(pq)
}

// record routes one terminal outcome to every configured consumer.
func (g *Generator) record(res Result) {
	if g.Sink != nil {
		g.Sink.Record(res)
	}
	if g.OnResult != nil {
		g.OnResult(res)
	}
}

// Pending returns the number of in-flight queries.
func (g *Generator) Pending() int { return g.pending.Len() }

// DrainPending marks all still-pending queries as failed (used at
// simulation end so accounting always balances), in launch order.
func (g *Generator) DrainPending() int {
	drained := g.pending.AppendFiled(nil)
	slices.SortFunc(drained, func(a, b *pendingQuery) int { return a.seq - b.seq })
	for _, pq := range drained {
		if pq.rto != nil {
			g.sim.Cancel(pq.rto)
			pq.rto = nil
		}
		g.pending.Delete(pq.id)
		g.record(Result{ID: pq.q.ID, Class: pq.q.Class, VIP: g.pending.Key(pq.id).Dst, IssuedAt: pq.sentAt, OK: false})
		g.putPQ(pq)
	}
	return len(drained)
}

var _ netsim.Node = (*Generator)(nil)
