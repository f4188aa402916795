// Package livenet is a real-time, goroutine-per-node runtime for the SRLB
// data plane: the same byte-accurate IPv6+SRH+TCP packets as the
// simulator, delivered over in-memory channels instead of virtual-time
// events.
//
// It exists to demonstrate (and test) that the protocol elements — the
// hunting load balancer, the per-server agent decision, the SYN-ACK
// learning path — work outside the discrete-event harness, under real
// concurrency. Servers here model an I/O-bound worker pool (each worker
// sleeps its service time); the simulator remains the tool for the
// paper's CPU-contention experiments.
package livenet

import (
	"errors"
	"fmt"
	"net/netip"
	"sync"
	"time"

	"srlb/internal/agent"
	"srlb/internal/core"
	"srlb/internal/ipv6"
	"srlb/internal/packet"
	"srlb/internal/selection"
	"srlb/internal/srv6"
	"srlb/internal/tcpseg"
)

// ErrClosed is returned by Send after Close.
var ErrClosed = errors.New("livenet: network closed")

// Handler processes one delivered packet.
type Handler func(pkt *packet.Packet)

// Network is an in-memory bridged LAN. Packets are serialized to bytes on
// Send and re-parsed before delivery, as the simulated wire does under
// netsim's VerifyChecksums.
type Network struct {
	mu     sync.Mutex
	nodes  map[netip.Addr]chan []byte
	closed bool
	wg     sync.WaitGroup
	// Latency is an optional artificial one-way delay.
	Latency time.Duration
}

// NewNetwork creates an empty LAN.
func NewNetwork() *Network {
	return &Network{nodes: make(map[netip.Addr]chan []byte)}
}

// Attach registers handler under the given addresses, each served by one
// delivery goroutine.
func (n *Network) Attach(handler Handler, addrs ...netip.Addr) {
	n.mu.Lock()
	defer n.mu.Unlock()
	if n.closed {
		panic(ErrClosed)
	}
	for _, a := range addrs {
		if _, dup := n.nodes[a]; dup {
			panic(fmt.Sprintf("livenet: address %v attached twice", a))
		}
		ch := make(chan []byte, 1024)
		n.nodes[a] = ch
		n.wg.Add(1)
		go func() {
			defer n.wg.Done()
			for wire := range ch {
				pkt, err := packet.Parse(wire, false)
				if err != nil {
					continue
				}
				handler(pkt)
			}
		}()
	}
}

// Send serializes and delivers pkt to its IPv6 destination. Unroutable
// packets are dropped silently (LAN semantics). It is safe from any
// goroutine.
func (n *Network) Send(pkt *packet.Packet) error {
	wire, err := pkt.Marshal(nil)
	if err != nil {
		return err
	}
	return n.deliver(pkt.IP.Dst, wire)
}

// deliver is the half of Send after serialisation: it may block on the
// receiver's queue, so a sender that must marshal under a lock of its own
// releases that lock before calling it.
func (n *Network) deliver(dst netip.Addr, wire []byte) error {
	n.mu.Lock()
	if n.closed {
		n.mu.Unlock()
		return ErrClosed
	}
	ch, ok := n.nodes[dst]
	n.mu.Unlock()
	if !ok {
		return nil
	}
	enqueue := func() {
		// Block: channel capacity models NIC queue back-pressure.
		defer func() { recover() }() // tolerate racing Close
		ch <- wire
	}
	if n.Latency > 0 {
		time.AfterFunc(n.Latency, enqueue)
		return nil
	}
	enqueue()
	return nil
}

// Close tears the LAN down and waits for delivery goroutines to drain.
func (n *Network) Close() {
	n.mu.Lock()
	if n.closed {
		n.mu.Unlock()
		return
	}
	n.closed = true
	for _, ch := range n.nodes {
		close(ch)
	}
	n.mu.Unlock()
	n.wg.Wait()
}

// LoadBalancer is the goroutine binding of core.Dispatcher — the same
// forwarding state machine the simulator runs — with the wall clock as
// its time source and a mutex in place of the single-threaded
// simulator.
type LoadBalancer struct {
	net   *Network
	start time.Time

	mu sync.Mutex
	d  *core.Dispatcher
}

// NewLoadBalancer attaches a hunting LB for one VIP.
func NewLoadBalancer(net *Network, addr, vip netip.Addr, scheme selection.Scheme) *LoadBalancer {
	return newLoadBalancer(net, core.Config{
		Addr:    addr,
		VIPList: []core.VIPConfig{{Addr: vip, Scheme: scheme}},
	})
}

func newLoadBalancer(net *Network, cfg core.Config) *LoadBalancer {
	lb := &LoadBalancer{net: net, start: time.Now(), d: core.NewDispatcher(cfg)}
	net.Attach(lb.handle, lb.d.Addrs()...)
	return lb
}

// FlowCount returns the number of tracked flows.
func (lb *LoadBalancer) FlowCount() int {
	lb.mu.Lock()
	defer lb.mu.Unlock()
	return lb.d.FlowCount()
}

// handle dispatches in place: the delivery goroutine parsed pkt from the
// wire for this call alone, so nothing else holds it. The network runs
// one such goroutine per address (the LB's own and every VIP), and a
// forwarded SYN's header is the dispatcher's (core.Dispatcher.Dispatch),
// so the packet is serialised before the lock is released — and only
// then delivered, which may block.
func (lb *LoadBalancer) handle(pkt *packet.Packet) {
	lb.mu.Lock()
	var wire []byte
	if lb.d.Dispatch(time.Since(lb.start), pkt) {
		// A packet that does not marshal is dropped, as Send dropped it.
		wire, _ = pkt.Marshal(nil)
	}
	lb.mu.Unlock()
	if wire != nil {
		lb.net.deliver(pkt.IP.Dst, wire)
	}
}

// ServerConfig assembles a live server.
type ServerConfig struct {
	Addr netip.Addr
	VIP  netip.Addr
	LB   netip.Addr
	// Workers is the pool size (busy count feeds the policy).
	Workers int
	// Policy is the acceptance policy consulted on hunt offers.
	Policy agent.Policy
	// Service computes the (slept) service duration for a request payload.
	Service func(payload []byte) time.Duration
}

// Server is the live-runtime application server + virtual router: a
// worker pool whose busy count drives the same agent policies as the
// simulator.
type Server struct {
	cfg ServerConfig
	net *Network

	// polMu serializes policy decisions; the policy reads the scoreboard
	// through BusyWorkers, which takes mu — never the other way around.
	polMu sync.Mutex

	mu       sync.Mutex
	busy     int
	conns    map[packet.FlowKey]bool
	accepted uint64
	refused  uint64
}

// NewServer attaches a live server. Addr and LB are the two segments it
// writes into every SYN-ACK; an unusable one panics here, while the
// server is being wired, rather than silently failing each handshake.
func NewServer(net *Network, cfg ServerConfig) *Server {
	if err := ipv6.CheckAddr(cfg.Addr); err != nil {
		panic(fmt.Sprintf("livenet: bad Addr: %v", err))
	}
	if err := ipv6.CheckAddr(cfg.LB); err != nil {
		panic(fmt.Sprintf("livenet: bad LB: %v", err))
	}
	if cfg.Workers <= 0 {
		cfg.Workers = 8
	}
	if cfg.Service == nil {
		cfg.Service = func([]byte) time.Duration { return 10 * time.Millisecond }
	}
	if cfg.Policy == nil {
		cfg.Policy = agent.Always{}
	}
	s := &Server{cfg: cfg, net: net, conns: make(map[packet.FlowKey]bool)}
	net.Attach(s.handle, cfg.Addr)
	return s
}

// BusyWorkers implements appserver.Scoreboard.
func (s *Server) BusyWorkers() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.busy
}

// TotalWorkers implements appserver.Scoreboard.
func (s *Server) TotalWorkers() int { return s.cfg.Workers }

// Accepted returns the number of accepted connections.
func (s *Server) Accepted() uint64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.accepted
}

func (s *Server) handle(pkt *packet.Packet) {
	if pkt.SRH != nil && pkt.IP.Dst == s.cfg.Addr && pkt.IsSYN() {
		if pkt.SRH.SegmentsLeft >= 2 {
			s.polMu.Lock()
			accept := s.cfg.Policy.Accept(s)
			s.polMu.Unlock()
			if !accept {
				s.mu.Lock()
				s.refused++
				s.mu.Unlock()
				out := pkt.Clone()
				if next, err := out.SRH.Advance(); err == nil {
					out.IP.Dst = next
					s.net.Send(out)
				}
				return
			}
		}
		s.acceptSYN(pkt)
		return
	}
	// Steered data packets: the live demo carries the request in the SYN,
	// so nothing further to do.
}

func (s *Server) acceptSYN(pkt *packet.Packet) {
	flow := pkt.Flow()
	// The SYN-ACK goes through the LB (flow learning). Its segment list is
	// built before anything is committed: a client address no SRH can
	// carry cannot be answered at all, and must not cost a worker that
	// nothing would ever release.
	srh, err := srv6.New(ipv6.ProtoTCP, s.cfg.Addr, s.cfg.LB, flow.Src)
	if err != nil {
		return
	}
	s.mu.Lock()
	if s.conns[flow] {
		s.mu.Unlock()
		return
	}
	if s.busy >= s.cfg.Workers {
		s.mu.Unlock()
		// Overflow: RST straight back (abort-on-overflow).
		rst := &packet.Packet{
			IP: ipv6.Header{Src: flow.Dst, Dst: flow.Src},
			TCP: tcpseg.Segment{
				SrcPort: flow.DstPort, DstPort: flow.SrcPort,
				Flags: tcpseg.FlagRST | tcpseg.FlagACK,
			},
		}
		s.net.Send(rst)
		return
	}
	s.busy++
	s.accepted++
	s.conns[flow] = true
	s.mu.Unlock()

	// Send the SYN-ACK, then serve asynchronously.
	next, _ := srh.Advance()
	synack := &packet.Packet{
		IP:  ipv6.Header{Src: flow.Dst, Dst: next},
		SRH: srh,
		TCP: tcpseg.Segment{
			SrcPort: flow.DstPort, DstPort: flow.SrcPort,
			Seq: 1, Ack: pkt.TCP.Seq + 1,
			Flags: tcpseg.FlagSYN | tcpseg.FlagACK,
		},
	}
	s.net.Send(synack)

	payload := append([]byte(nil), pkt.TCP.Payload...)
	go func() {
		time.Sleep(s.cfg.Service(payload))
		s.mu.Lock()
		s.busy--
		delete(s.conns, flow)
		s.mu.Unlock()
		resp := &packet.Packet{
			IP: ipv6.Header{Src: flow.Dst, Dst: flow.Src},
			TCP: tcpseg.Segment{
				SrcPort: flow.DstPort, DstPort: flow.SrcPort,
				Seq: 2, Ack: 2,
				Flags:   tcpseg.FlagPSH | tcpseg.FlagACK | tcpseg.FlagFIN,
				Payload: []byte("HTTP/1.1 200 OK\r\n\r\n"),
			},
		}
		s.net.Send(resp)
	}()
}

// Client issues queries and records response times in the live runtime.
type Client struct {
	addr netip.Addr
	vip  netip.Addr
	net  *Network

	mu       sync.Mutex
	nextPort uint16
	pending  map[packet.FlowKey]pendingLive
	done     chan Outcome
}

type pendingLive struct {
	sent time.Time
}

// Outcome is one completed live query.
type Outcome struct {
	RT      time.Duration
	Refused bool
}

// NewClient attaches a client.
func NewClient(net *Network, addr, vip netip.Addr) *Client {
	c := &Client{
		addr: addr, vip: vip, net: net,
		nextPort: 1024,
		pending:  make(map[packet.FlowKey]pendingLive),
		done:     make(chan Outcome, 4096),
	}
	net.Attach(c.handle, addr)
	return c
}

// Results exposes the completion stream.
func (c *Client) Results() <-chan Outcome { return c.done }

// Launch opens one connection with the given payload.
func (c *Client) Launch(payload []byte) {
	c.mu.Lock()
	port := c.nextPort
	c.nextPort++
	if c.nextPort == 0 {
		c.nextPort = 1024
	}
	flow := packet.FlowKey{Src: c.addr, Dst: c.vip, SrcPort: port, DstPort: 80}
	c.pending[flow] = pendingLive{sent: time.Now()}
	c.mu.Unlock()
	syn := &packet.Packet{
		IP: ipv6.Header{Src: c.addr, Dst: c.vip},
		TCP: tcpseg.Segment{
			SrcPort: port, DstPort: 80,
			Flags:   tcpseg.FlagSYN,
			Payload: payload,
		},
	}
	c.net.Send(syn)
}

func (c *Client) handle(pkt *packet.Packet) {
	flow := packet.FlowKey{
		Src: pkt.IP.Dst, Dst: pkt.IP.Src,
		SrcPort: pkt.TCP.DstPort, DstPort: pkt.TCP.SrcPort,
	}
	c.mu.Lock()
	pq, ok := c.pending[flow]
	if !ok {
		c.mu.Unlock()
		return
	}
	switch {
	case pkt.TCP.Flags.Has(tcpseg.FlagRST):
		delete(c.pending, flow)
		c.mu.Unlock()
		c.done <- Outcome{RT: time.Since(pq.sent), Refused: true}
	case len(pkt.TCP.Payload) > 0 && !pkt.IsSYNACK():
		delete(c.pending, flow)
		c.mu.Unlock()
		c.done <- Outcome{RT: time.Since(pq.sent)}
	default:
		c.mu.Unlock()
	}
}
