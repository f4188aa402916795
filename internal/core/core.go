// Package core implements SRLB's primary contribution: the load balancer
// that performs Service Hunting within the IP forwarding plane (paper
// §II).
//
// The load balancer sits at the edge of the data center and advertises
// routes for the virtual IPs (VIPs). Its entire job is forwarding-plane
// state manipulation — it never terminates connections and knows nothing
// about application protocols:
//
//   - On a new flow's SYN, it selects candidate servers (two at random in
//     the paper's evaluation) and inserts an SRH listing them, with the
//     VIP as the final segment. The candidates then "hunt": each may
//     accept or pass the connection along, based on purely local state.
//   - The accepting server's SYN-ACK travels back through the LB carrying
//     an SRH [server, LB, client]; the LB reads the accepting server from
//     the segment list, installs flow state, strips the SRH, and forwards
//     to the (SR-oblivious) client.
//   - Every subsequent client packet of the flow is steered straight to
//     the accepting server through a one-segment SRH.
//   - FIN/RST mark the flow closing; entries then expire after a short
//     linger (and idle flows after a TTL), bounding LB state.
//
// Dispatch is indexed: VIP configuration compiles into a dense table of
// per-VIP entries plus one address→id map, so the per-packet cost is a
// single map lookup followed by array indexing — O(1) in the number of
// advertised services, whether the balancer serves four VIPs or ten
// thousand.
package core

import (
	"fmt"
	"net/netip"
	"time"

	"srlb/internal/des"
	"srlb/internal/flowtable"
	"srlb/internal/ipv6"
	"srlb/internal/metrics"
	"srlb/internal/netsim"
	"srlb/internal/packet"
	"srlb/internal/selection"
	"srlb/internal/srv6"
	"srlb/internal/tcpseg"
)

// VIPConfig declares one advertised VIP. Position in Config.VIPList is
// the VIP's dense internal id, so a caller that builds the list in a
// deterministic order gets a fully deterministic balancer without any
// map-iteration concerns.
type VIPConfig struct {
	// Addr is the virtual IP clients address.
	Addr netip.Addr
	// Scheme selects candidate servers for new flows.
	Scheme selection.Scheme
	// Fallback, when non-nil, selects a server for this VIP's non-SYN
	// packets that miss the flow table (e.g. after LB state loss) instead
	// of dropping them. A consistent-hash scheme makes post-failure
	// steering deterministic.
	Fallback selection.Scheme
}

// Config assembles a load balancer.
type Config struct {
	// Addr is the LB's own address (the segment servers route SYN-ACKs
	// through).
	Addr netip.Addr
	// VIPList declares the advertised VIPs in dense-id order: one slice,
	// no per-VIP map churn, ids assigned by position.
	VIPList []VIPConfig
	// Flows tunes the flow table (zero value = defaults).
	Flows flowtable.Config
	// SweepInterval bounds how often expired flow entries are collected.
	// Sweeps run opportunistically on the datapath (at most one per
	// interval), never from a free-running timer — so an idle simulation
	// terminates. Default 1s of the caller's clock; negative disables.
	SweepInterval time.Duration
}

// vipEntry is the compiled per-VIP dispatch state: everything the hot
// path needs after the single vipIndex lookup, in one cache-friendly
// slot. The per-VIP SYN counter lives here as a plain integer. (The
// shared string-keyed Counts map is still hit on every packet — the
// typed counter block that replaces it is ROADMAP item 2(d), which
// waits for item 1.)
type vipEntry struct {
	addr     netip.Addr
	scheme   selection.Scheme
	fallback selection.Scheme
	// stateful and resteer cache the scheme's optional capabilities,
	// probed once at compile time (through any delegation wrapper): nil
	// for the paper's plain schemes, so the load-oblivious hot path
	// stays free of interface probes per packet.
	stateful selection.Stateful
	resteer  selection.Resteerer
	syns     uint64
}

// Dispatcher is the SRLB forwarding state machine: flow table, compiled
// VIP table, counters and sweep clock. Time comes from the caller on
// every call and forwarding is the caller's job, so the same code runs
// under virtual time (LoadBalancer below) and under the wall clock
// (internal/livenet). It is not safe for concurrent use.
type Dispatcher struct {
	cfg       Config
	flows     *flowtable.Table
	lastSweep time.Duration
	Counts    *metrics.Counter
	// vipIndex maps each advertised VIP to its dense id in vips. This is
	// the only per-packet map lookup on the dispatch path.
	vipIndex map[netip.Addr]int32
	vips     []vipEntry
	// hunt is the header of every forwarded SYN, rewritten in place per
	// SYN (one per Dispatcher, never per VIP), and path the scratch its
	// candidates-then-VIP list is assembled in. See Dispatch for who may
	// read hunt and for how long.
	hunt srv6.SRH
	path []netip.Addr
}

// NewDispatcher validates cfg and compiles the indexed dispatch table.
// Allocation is constant-count (one slice, one presized map) regardless
// of VIP count.
func NewDispatcher(cfg Config) *Dispatcher {
	if err := ipv6.CheckAddr(cfg.Addr); err != nil {
		panic(fmt.Sprintf("core: bad LB addr: %v", err))
	}
	if len(cfg.VIPList) == 0 {
		panic("core: at least one VIP is required")
	}
	if cfg.SweepInterval == 0 {
		cfg.SweepInterval = time.Second
	}
	d := &Dispatcher{
		cfg:      cfg,
		flows:    flowtable.New(cfg.Flows),
		Counts:   metrics.NewCounter(),
		vips:     make([]vipEntry, len(cfg.VIPList)),
		vipIndex: make(map[netip.Addr]int32, len(cfg.VIPList)),
	}
	for i, vc := range cfg.VIPList {
		if err := ipv6.CheckAddr(vc.Addr); err != nil {
			panic(fmt.Sprintf("core: bad VIP: %v", err))
		}
		if _, dup := d.vipIndex[vc.Addr]; dup {
			panic(fmt.Sprintf("core: duplicate VIP %v", vc.Addr))
		}
		d.vips[i] = vipEntry{
			addr:     vc.Addr,
			scheme:   vc.Scheme,
			fallback: vc.Fallback,
			stateful: selection.AsStateful(vc.Scheme),
			resteer:  selection.AsResteerer(vc.Scheme),
		}
		d.vipIndex[vc.Addr] = int32(i)
	}
	return d
}

// Addrs returns every address the balancer answers on: its own, then
// each VIP in id order — what a binding attaches to its network.
func (d *Dispatcher) Addrs() []netip.Addr {
	addrs := append(make([]netip.Addr, 0, 1+len(d.vips)), d.cfg.Addr)
	for i := range d.vips {
		addrs = append(addrs, d.vips[i].addr)
	}
	return addrs
}

// NumVIPs returns how many VIPs the balancer advertises.
func (d *Dispatcher) NumVIPs() int { return len(d.vips) }

// VIPSYNs returns the number of client SYNs this replica received for
// the given VIP — the per-service demand split of a multi-VIP cluster.
// Summed across replicas it equals the queries offered to the VIP (each
// query sends one SYN unless client retransmission is enabled).
func (d *Dispatcher) VIPSYNs(vip netip.Addr) uint64 {
	id, ok := d.vipIndex[vip]
	if !ok {
		return 0
	}
	return d.vips[id].syns
}

// FlowCount returns the number of tracked flows.
func (d *Dispatcher) FlowCount() int { return d.flows.Len() }

// FlowStats returns flow-table counters.
func (d *Dispatcher) FlowStats() flowtable.Stats { return d.flows.Stats() }

// ResetFlows discards all learned flow state — a replica restarting
// after a failure comes back stateless. The §II-B consistent-hashing
// selection (and the per-VIP Fallback steering path) exist precisely so
// that this is survivable without state synchronization: any replica
// recomputes the same flow→server mapping from the packet alone.
func (d *Dispatcher) ResetFlows() {
	d.flows = flowtable.New(d.cfg.Flows)
}

// SeedFlow installs a flow→server binding directly, bypassing SYN-ACK
// learning — the warm-handoff hook (a recovering replica inheriting
// another's connection state) and the dispatch benchmarks' way of
// exercising the steered-hit path without running the simulator.
func (d *Dispatcher) SeedFlow(now time.Duration, flow packet.FlowKey, server netip.Addr) {
	d.flows.Insert(now, flow, server)
}

// ExportFlows snapshots every flow binding alive at now — the donor
// half of a warm handoff. The snapshot carries absolute deadlines and
// closing marks, so a receiver importing it later inherits exactly the
// state that is still alive then.
func (d *Dispatcher) ExportFlows(now time.Duration) []flowtable.FlowBinding {
	return d.flows.Snapshot(now)
}

// ImportFlows merges an exported snapshot into this replica's flow
// table — the receiving half of a warm handoff. Bindings that expired
// since the export are dropped, a newer local entry is never
// overwritten, and the table's capacity bound still holds. Returns the
// number of bindings applied.
func (d *Dispatcher) ImportFlows(now time.Duration, bindings []flowtable.FlowBinding) int {
	return d.flows.Restore(now, bindings)
}

// SweepNow immediately collects expired flow entries and returns how many
// were removed.
func (d *Dispatcher) SweepNow(now time.Duration) int {
	d.lastSweep = now
	return d.flows.Sweep(now)
}

// Dispatch runs one packet through the load balancer at time now. It
// rewrites pkt in place — the caller must own it — and reports whether
// the caller should forward the result to pkt.IP.Dst; every drop is
// recorded in Counts. Expired flow state is collected opportunistically
// here, at most once per SweepInterval of the caller's clock.
//
// Ownership: a forwarded SYN's pkt.SRH points at storage the Dispatcher
// owns and rewrites on the next hunt, so the caller copies or serialises
// the packet (netsim.Send copies it; livenet marshals under its lock)
// before it calls Dispatch again, and keeps nothing of it afterwards. A steered packet
// still carries a header of its own.
func (d *Dispatcher) Dispatch(now time.Duration, pkt *packet.Packet) (forward bool) {
	if d.cfg.SweepInterval >= 0 && now-d.lastSweep >= d.cfg.SweepInterval {
		d.SweepNow(now)
	}
	// SYN-ACK (or any packet) SR-routed through the LB itself: the
	// flow-learning path.
	if pkt.IP.Dst == d.cfg.Addr {
		if pkt.SRH != nil {
			return d.handleReturn(now, pkt)
		}
		d.Counts.Inc("to_lb_no_srh")
		return false
	}
	// Client-side traffic addressed to a VIP: one map lookup, then
	// everything the packet needs is in the dense entry.
	id, ok := d.vipIndex[pkt.IP.Dst]
	if !ok {
		d.Counts.Inc("unknown_vip")
		return false
	}
	e := &d.vips[id]
	if pkt.IsSYN() {
		e.syns++
		return d.handleSYN(now, pkt, e)
	}
	return d.handleSteered(now, pkt, e)
}

// handleSYN starts Service Hunting: insert the candidate SRH and forward
// to the first candidate. A SYN whose flow is already bound (a client
// retransmission after a lost SYN-ACK) is steered to the bound server
// instead of starting a new hunt — "data packets belonging to the same
// flow are delivered to the same application instance" (§I) includes the
// SYN itself.
func (d *Dispatcher) handleSYN(now time.Duration, pkt *packet.Packet, e *vipEntry) bool {
	d.Counts.Inc("syn_rx")
	flow := pkt.Flow()
	if _, bound := d.flows.Lookup(now, flow); bound {
		d.Counts.Inc("syn_rebound")
		return d.handleSteered(now, pkt, e)
	}
	candidates := e.scheme.Pick(flow)
	if len(candidates) == 0 {
		d.Counts.Inc("no_candidates")
		return false
	}
	// Copied at once: candidates is the scheme's scratch.
	d.path = append(append(d.path[:0], candidates...), pkt.IP.Dst)
	if err := d.hunt.SetPath(ipv6.ProtoTCP, d.path...); err != nil {
		panic(fmt.Sprintf("core: hunt SRH: %v", err))
	}
	pkt.SRH = &d.hunt
	pkt.IP.Dst = d.path[0]
	d.Counts.Inc("hunts_started")
	return true
}

// handleReturn processes a server→client packet SR-routed through the LB:
// learn the accepting server, strip the SRH, forward to the client.
func (d *Dispatcher) handleReturn(now time.Duration, pkt *packet.Packet) bool {
	srh := pkt.SRH
	active, err := srh.Active()
	if err != nil || active != d.cfg.Addr {
		d.Counts.Inc("return_bad_segment")
		return false
	}
	// The accepting server wrote itself one slot behind the LB in the
	// list (figure 1: SYN-ACK {a, S2, LB, c} — S2 at SL+1).
	server, err := srh.SegmentAtSL(srh.SegmentsLeft + 1)
	if err != nil {
		d.Counts.Inc("return_no_server")
		return false
	}
	client, err := srh.Advance()
	if err != nil {
		d.Counts.Inc("return_exhausted")
		return false
	}
	if pkt.IsSYNACK() {
		// Key the mapping by the CLIENT's view of the flow: the SYN-ACK
		// flow is (VIP→client); the client flow is its reverse.
		clientFlow := pkt.Flow().Reverse()
		d.flows.Insert(now, clientFlow, server)
		d.Counts.Inc("flows_learned")
		// A stateful scheme tracks its own placements (the in-flight
		// delta between feedback reports); the flow's VIP is the client
		// flow's destination.
		if id, ok := d.vipIndex[clientFlow.Dst]; ok {
			if st := d.vips[id].stateful; st != nil {
				st.Observe(server, +1)
			}
		}
	}
	// Strip the SRH: the client is SR-oblivious.
	pkt.SRH = nil
	pkt.IP.Dst = client
	d.Counts.Inc("returns_relayed")
	return true
}

// handleSteered forwards mid-flow client packets to the accepting
// server. When the VIP's scheme can re-steer (flowlet-grained
// balancing), the lookup also reads the flow's idle gap and offers
// eligible packets to the scheme at flowlet boundaries; a move rebinds
// the flowtable entry in place, so the packet and every successor
// steer to the new server.
//
// The steer header is the one srv6.New left on the data plane (two
// objects per steered packet): rewriting it in place like the hunt
// header would take dispatch_steered to zero garbage, which the frozen
// benchmark cannot yet report (ROADMAP item 1), so it waits for that.
func (d *Dispatcher) handleSteered(now time.Duration, pkt *packet.Packet, e *vipEntry) bool {
	flow := pkt.Flow()
	isRST := pkt.TCP.Flags.Has(tcpseg.FlagRST)
	var server netip.Addr
	var ok bool
	if e.resteer != nil {
		var idle time.Duration
		server, idle, ok = d.flows.LookupIdle(now, flow)
		if ok && selection.ResteerEligible(pkt.IsSYN(), isRST) {
			if next, move := e.resteer.Resteer(now, flow, idle, server); move && next != server {
				d.flows.Rebind(now, flow, next)
				if st := e.stateful; st != nil {
					st.Observe(server, -1)
					st.Observe(next, +1)
				}
				server = next
				d.Counts.Inc("flowlet_resteer")
			}
		}
	} else {
		server, ok = d.flows.Lookup(now, flow)
	}
	if !ok {
		if fb := e.fallback; fb != nil {
			if cands := fb.Pick(flow); len(cands) > 0 {
				server = cands[0]
				ok = true
				d.Counts.Inc("miss_fallback")
			}
		}
		if !ok {
			d.Counts.Inc("miss_dropped")
			return false
		}
	}
	if pkt.TCP.Flags.Has(tcpseg.FlagFIN) || isRST {
		if d.flows.MarkClosing(now, flow) {
			if st := e.stateful; st != nil {
				st.Observe(server, -1)
			}
		}
		d.Counts.Inc("closing_observed")
	}
	vip := pkt.IP.Dst
	srh, err := srv6.New(ipv6.ProtoTCP, server, vip)
	if err != nil {
		panic(fmt.Sprintf("core: steer SRH: %v", err))
	}
	pkt.SRH = srh
	pkt.IP.Dst = server
	d.Counts.Inc("steered")
	return true
}

// LoadBalancer is the discrete-event binding of Dispatcher: the
// simulator is its clock and the simulated LAN its wire. The embedded
// Dispatcher's read-only methods and Counts are used as they are; the
// methods below supply the virtual time to the ones that need it.
type LoadBalancer struct {
	*Dispatcher
	sim *des.Simulator
	net *netsim.Network
}

// New builds the LB and attaches it to the network under its own address
// and every VIP it advertises.
func New(sim *des.Simulator, net *netsim.Network, cfg Config) *LoadBalancer {
	lb := NewDetached(sim, net, cfg)
	net.Attach(lb, lb.Addrs()...)
	return lb
}

// NewDetached builds the LB without attaching it to the LAN — for
// multi-replica deployments the caller places each replica into the
// anycast/ECMP groups of the shared VIP and LB return address itself
// (netsim.AttachAnycast).
func NewDetached(sim *des.Simulator, net *netsim.Network, cfg Config) *LoadBalancer {
	return &LoadBalancer{Dispatcher: NewDispatcher(cfg), sim: sim, net: net}
}

// SeedFlow is Dispatcher.SeedFlow at the current virtual time.
func (lb *LoadBalancer) SeedFlow(flow packet.FlowKey, server netip.Addr) {
	lb.Dispatcher.SeedFlow(lb.sim.Now(), flow, server)
}

// ExportFlows is Dispatcher.ExportFlows at the current virtual time.
func (lb *LoadBalancer) ExportFlows() []flowtable.FlowBinding {
	return lb.Dispatcher.ExportFlows(lb.sim.Now())
}

// ImportFlows is Dispatcher.ImportFlows at the current virtual time.
func (lb *LoadBalancer) ImportFlows(bindings []flowtable.FlowBinding) int {
	return lb.Dispatcher.ImportFlows(lb.sim.Now(), bindings)
}

// SweepNow is Dispatcher.SweepNow at the current virtual time.
func (lb *LoadBalancer) SweepNow() int { return lb.Dispatcher.SweepNow(lb.sim.Now()) }

// Handle implements netsim.Node. The delivered packet is owned by this
// node (netsim.Node contract), so Dispatch rewrites it in place rather
// than cloning on the hot path.
func (lb *LoadBalancer) Handle(pkt *packet.Packet) {
	if lb.Dispatch(lb.sim.Now(), pkt) {
		lb.net.Send(pkt)
	}
}

var _ netsim.Node = (*LoadBalancer)(nil)
