// Package netsim simulates the paper's experimental network (§IV-C): all
// VPP instances — the load balancer and the twelve application servers —
// "bridged on the same link, with routing tables statically configured".
//
// The network is a flat L2 segment addressed by IPv6 address. Every
// transmission checks the packet exactly as the wire codec would, applies
// link latency (optionally jitter and loss), and hands the receiver its
// own copy of what a parse of the bytes would give — the way a software
// data plane (the paper's VPP) rewrites the buffer it was handed instead
// of re-serialising it. With Config.VerifyChecksums every hop runs the
// full codec: marshal to bytes, then parse and verify the TCP checksum at
// the receiver — the reference the copy is tested against.
package netsim

import (
	"encoding/binary"
	"fmt"
	"hash/fnv"
	"math/rand/v2"
	"net/netip"
	"slices"
	"time"

	"srlb/internal/addrtab"
	"srlb/internal/des"
	"srlb/internal/metrics"
	"srlb/internal/packet"
	"srlb/internal/srv6"
)

// Node is anything attached to the LAN. Handle is invoked once per
// delivered packet; the node may synchronously send more packets.
//
// Ownership: the delivered packet belongs to the receiving node. It may
// be mutated in place and re-sent (how the LB and the virtual routers
// forward without cloning per hop); conversely, anything that must
// outlive the Handle call has to be copied out (packet.Clone). The
// network enforces this by recycling the Packet struct, the SRH its
// routing header was copied or parsed into (pkt.SRH points at storage
// that travels with the Packet) and the buffer its payload lives in for
// later transmissions once Handle returns: a retained pkt.SRH is
// overwritten by the next delivery through the same slot.
type Node interface {
	// Handle processes one delivered packet.
	Handle(pkt *packet.Packet)
}

// Tap observes every delivered packet (after the copy or parse, before
// Handle). Used by tests and the pcap-style logger. Taps run before
// ownership passes to the node, so they see the packet as it arrived —
// but they must not retain it beyond the call (the node may mutate it).
type Tap func(at time.Duration, dst netip.Addr, pkt *packet.Packet)

// Config tunes link behavior. The zero value gives an ideal lossless LAN.
type Config struct {
	// JitterFrac adds uniform ±fraction jitter to Latency (0 disables).
	JitterFrac float64
	// LossProb drops packets with this probability (0 disables).
	LossProb float64
	// VerifyChecksums carries every hop as wire bytes — marshal at Send,
	// parse and re-validate the TCP checksum at delivery — instead of
	// copying the packet. Slower; the reference path the copy is tested
	// against, and what the codec unit tests run.
	VerifyChecksums bool
	// Seed drives jitter/loss randomness.
	Seed uint64
}

// Latency is the one-way delivery delay: same-rack, the paper's one
// bridged link.
const Latency = 50 * time.Microsecond

// The Network's counters, by slot; counterSchema names them.
const (
	cntTx = iota
	cntTxBytes
	cntLost
	cntRxParseError
	cntUnroutable
	cntRx
)

var counterSchema = metrics.NewSchema([]string{
	cntTx: "tx", cntTxBytes: "tx_bytes", cntLost: "lost", cntRxParseError: "rx_parse_error",
	cntUnroutable: "unroutable", cntRx: "rx",
})

// Network is a simulated bridged LAN. Routing is one lookup: addrs
// interns every address ever attached, and routes[id+1] holds address
// id's unicast owner, its anycast group, or nil once detached; routes[0],
// where a lookup's miss (id -1) lands, is nil. A group stays a group when
// its last member leaves.
type Network struct {
	sim    *des.Simulator
	cfg    Config
	rng    *rand.Rand
	addrs  *addrtab.Table
	routes []Node // by address id + 1
	taps   []Tap
	Counts *metrics.Counter

	// Transmission recycling: each Send borrows a slot, returned to the
	// free list once the receiving node's Handle returns (or at once
	// when the packet is lost). Sound because of the ownership contract
	// above: nothing may retain the packet (or its SRH, or its payload)
	// beyond the Handle call.
	free *slot
}

// slot is one transmission from Send to the end of the receiver's
// Handle: the Packet handed to the node, the header its SRH is copied or
// parsed into, the buffer holding its payload (under VerifyChecksums the
// marshaled wire, which the parsed payload aliases), and the closure the
// simulator fires to deliver it. The closure is bound to the slot once,
// at allocation, so re-use costs zero allocations.
type slot struct {
	pkt  packet.Packet
	srh  srv6.SRH
	buf  []byte
	fire func()
	next *slot // free-list link
}

// New creates a network on the given simulator.
func New(sim *des.Simulator, cfg Config) *Network {
	return &Network{
		sim:    sim,
		cfg:    cfg,
		rng:    rand.New(rand.NewPCG(cfg.Seed, 0xbeef)),
		addrs:  addrtab.New(0),
		routes: make([]Node, 1),
		Counts: counterSchema.NewCounter(),
	}
}

// Reserve sizes still empty routing tables for count addresses.
func (n *Network) Reserve(count int) {
	if len(n.routes) == 1 {
		n.addrs, n.routes = addrtab.New(count), make([]Node, 1, count+1)
	}
}

// group is an anycast address's ECMP group.
type group struct{ members []Node }

// Handle passes pkt to the member its 5-tuple hashes to.
func (g *group) Handle(pkt *packet.Packet) {
	g.members[ecmpHash(pkt)%uint64(len(g.members))].Handle(pkt)
}

// route returns a's index in routes, adding a if it is new.
func (n *Network) route(a netip.Addr) int32 {
	id := n.addrs.Add(a) + 1
	if int(id) == len(n.routes) {
		n.routes = append(n.routes, nil)
	}
	return id
}

// Attach binds addrs to node on the LAN. Attaching an address twice
// panics: unicast address assignment is static in the testbed (use
// AttachAnycast for ECMP groups).
func (n *Network) Attach(node Node, addrs ...netip.Addr) {
	for _, a := range addrs {
		id := n.route(a)
		if _, dup := n.routes[id].(*group); dup {
			panic(fmt.Sprintf("netsim: address %v already an anycast group", a))
		}
		if n.routes[id] != nil {
			panic(fmt.Sprintf("netsim: address %v attached twice", a))
		}
		n.routes[id] = node
	}
}

// Detach removes a unicast address binding previously installed by
// Attach — a node failing or being decommissioned mid-run. Packets
// already in flight toward addr become unroutable (and are counted),
// exactly as on a real LAN when a host drops off. It reports whether
// node owned addr.
func (n *Network) Detach(node Node, addr netip.Addr) bool {
	if id, ok := n.addrs.Lookup(addr); ok && n.routes[id+1] == node {
		n.routes[id+1] = nil
		return true
	}
	return false
}

// AttachAnycast adds node to the ECMP group of addr: packets to addr are
// spread across the group by a stable hash of the TCP 5-tuple, the way
// routers ECMP flows across equal-cost next hops (RFC 2992 hash-threshold
// — the mechanism the paper's related work relies on for scaling LB
// instances).
func (n *Network) AttachAnycast(node Node, addr netip.Addr) {
	id := n.route(addr)
	switch g := n.routes[id].(type) {
	case nil:
		n.routes[id] = &group{members: []Node{node}}
	case *group:
		g.members = append(g.members, node)
	default:
		panic(fmt.Sprintf("netsim: address %v already unicast", addr))
	}
}

// DetachAnycast removes one member from addr's ECMP group (a replica
// failing or being drained); remaining flows rehash across survivors.
// It reports whether the member was present. Members are matched by
// interface equality, so anycast nodes must have comparable dynamic types
// (pointers — as every real node is; NodeFunc closures are not).
func (n *Network) DetachAnycast(node Node, addr netip.Addr) bool {
	id, _ := n.addrs.Lookup(addr)
	if g, isGroup := n.routes[id+1].(*group); isGroup {
		if i := slices.Index(g.members, node); i >= 0 {
			g.members = append(g.members[:i:i], g.members[i+1:]...)
			return true
		}
	}
	return false
}

// AddTap registers a delivery observer.
func (n *Network) AddTap(t Tap) { n.taps = append(n.taps, t) }

// get pops (or allocates) a transmission slot.
func (n *Network) get() *slot {
	if s := n.free; s != nil {
		n.free = s.next
		s.next = nil
		return s
	}
	s := &slot{}
	s.fire = func() { n.deliver(s) }
	return s
}

func (n *Network) put(s *slot) {
	// Drop the references to whatever header and payload the node left on
	// the packet so the recycled slot pins nothing.
	s.pkt.SRH = nil
	s.pkt.TCP.Payload = nil
	s.next = n.free
	n.free = s
}

// Send schedules the delivery of pkt to the node owning the packet's
// IPv6 destination address. It checks pkt as Marshal would and applies
// Marshal's header fix-ups to it, then copies (under VerifyChecksums,
// serialises) everything the receiver needs before it returns, so the
// sender may rewrite pkt, its header and its payload at once. Unroutable
// destinations and lossy drops are counted, not errors: that is how a
// real LAN behaves.
func (n *Network) Send(pkt *packet.Packet) {
	s := n.get()
	var err error
	if n.cfg.VerifyChecksums {
		s.buf, err = pkt.Marshal(s.buf[:0])
	} else {
		err = pkt.Check()
	}
	if err != nil {
		// A malformed locally-originated packet is a programming error in
		// the sending node; surface it loudly.
		panic(fmt.Sprintf("netsim: marshal failed: %v", err))
	}
	n.Counts.Add(cntTx, 1)
	n.Counts.Add(cntTxBytes, uint64(pkt.WireLen()))
	if n.cfg.LossProb > 0 && n.rng.Float64() < n.cfg.LossProb {
		n.Counts.Add(cntLost, 1)
		n.put(s)
		return
	}
	delay := Latency
	if n.cfg.JitterFrac > 0 {
		delay = time.Duration(float64(delay) * (1 + n.cfg.JitterFrac*(2*n.rng.Float64()-1)))
	}
	if !n.cfg.VerifyChecksums {
		// Into the slot's own storage, whatever the node that last had
		// this slot left in pkt.SRH and pkt.TCP.Payload.
		s.pkt.SRH, s.pkt.TCP.Payload = &s.srh, s.buf[:0]
		packet.CopyInto(&s.pkt, pkt)
		s.buf = s.pkt.TCP.Payload
	}
	n.sim.ScheduleAfter(delay, s.fire)
}

func (n *Network) deliver(s *slot) {
	pkt := &s.pkt
	if n.cfg.VerifyChecksums {
		// Like the copy, parse into the slot's own header storage.
		pkt.SRH = &s.srh
		if err := packet.ParseInto(pkt, s.buf, true); err != nil {
			n.Counts.Add(cntRxParseError, 1)
			n.put(s)
			return
		}
	}
	id, _ := n.addrs.Lookup(pkt.IP.Dst)
	node := n.routes[id+1]
	if g, isGroup := node.(*group); node == nil || isGroup && len(g.members) == 0 {
		n.Counts.Add(cntUnroutable, 1)
		n.put(s)
		return
	}
	n.Counts.Add(cntRx, 1)
	for _, tap := range n.taps {
		tap(n.sim.Now(), pkt.IP.Dst, pkt)
	}
	node.Handle(pkt)
	n.put(s)
}

// ecmpHash hashes the transport 5-tuple (stable per flow direction).
func ecmpHash(pkt *packet.Packet) uint64 {
	h := fnv.New64a()
	src := pkt.IP.Src.As16()
	dst := pkt.IP.Dst.As16()
	h.Write(src[:])
	h.Write(dst[:])
	var ports [4]byte
	binary.BigEndian.PutUint16(ports[0:2], pkt.TCP.SrcPort)
	binary.BigEndian.PutUint16(ports[2:4], pkt.TCP.DstPort)
	h.Write(ports[:])
	return h.Sum64()
}

// NodeFunc adapts a function to the Node interface.
type NodeFunc func(pkt *packet.Packet)

// Handle implements Node.
func (f NodeFunc) Handle(pkt *packet.Packet) { f(pkt) }
