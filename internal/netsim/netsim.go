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
	"time"

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

// Config tunes link behavior. The zero value gives an ideal lossless LAN
// with the default latency.
type Config struct {
	// Latency is the one-way delivery delay (default 50µs — same-rack).
	Latency time.Duration
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

// DefaultLatency is the one-way LAN latency when Config.Latency is zero.
const DefaultLatency = 50 * time.Microsecond

// Network is a simulated bridged LAN.
type Network struct {
	sim    *des.Simulator
	cfg    Config
	rng    *rand.Rand
	nodes  map[netip.Addr]Node
	anycst map[netip.Addr][]Node
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
	if cfg.Latency <= 0 {
		cfg.Latency = DefaultLatency
	}
	return &Network{
		sim:    sim,
		cfg:    cfg,
		rng:    rand.New(rand.NewPCG(cfg.Seed, 0xbeef)),
		nodes:  make(map[netip.Addr]Node),
		anycst: make(map[netip.Addr][]Node),
		Counts: metrics.NewCounter(),
	}
}

// Attach binds addrs to node on the LAN. Attaching an address twice
// panics: unicast address assignment is static in the testbed (use
// AttachAnycast for ECMP groups).
func (n *Network) Attach(node Node, addrs ...netip.Addr) {
	for _, a := range addrs {
		if _, dup := n.nodes[a]; dup {
			panic(fmt.Sprintf("netsim: address %v attached twice", a))
		}
		if _, dup := n.anycst[a]; dup {
			panic(fmt.Sprintf("netsim: address %v already an anycast group", a))
		}
		n.nodes[a] = node
	}
}

// Detach removes a unicast address binding previously installed by
// Attach — a node failing or being decommissioned mid-run. Packets
// already in flight toward addr become unroutable (and are counted),
// exactly as on a real LAN when a host drops off. It reports whether
// node owned addr.
func (n *Network) Detach(node Node, addr netip.Addr) bool {
	if cur, ok := n.nodes[addr]; ok && cur == node {
		delete(n.nodes, addr)
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
	if _, dup := n.nodes[addr]; dup {
		panic(fmt.Sprintf("netsim: address %v already unicast", addr))
	}
	n.anycst[addr] = append(n.anycst[addr], node)
}

// DetachAnycast removes one member from addr's ECMP group (a replica
// failing or being drained); remaining flows rehash across survivors.
// It reports whether the member was present. Members are matched by
// interface equality, so anycast nodes must have comparable dynamic types
// (pointers — as every real node is; NodeFunc closures are not).
func (n *Network) DetachAnycast(node Node, addr netip.Addr) bool {
	group := n.anycst[addr]
	for i, member := range group {
		if member == node {
			n.anycst[addr] = append(group[:i:i], group[i+1:]...)
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
	n.Counts.Inc("tx")
	n.Counts.Addn("tx_bytes", uint64(pkt.WireLen()))
	if n.cfg.LossProb > 0 && n.rng.Float64() < n.cfg.LossProb {
		n.Counts.Inc("lost")
		n.put(s)
		return
	}
	delay := n.cfg.Latency
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
			n.Counts.Inc("rx_parse_error")
			n.put(s)
			return
		}
	}
	node, ok := n.nodes[pkt.IP.Dst]
	if !ok {
		if group := n.anycst[pkt.IP.Dst]; len(group) > 0 {
			node = group[ecmpHash(pkt)%uint64(len(group))]
			ok = true
		}
	}
	if !ok {
		n.Counts.Inc("unroutable")
		n.put(s)
		return
	}
	n.Counts.Inc("rx")
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
