package main

import (
	"fmt"
	"net/netip"
	"time"

	"srlb/internal/flowtable"
	"srlb/internal/ipv6"
	"srlb/internal/packet"
	"srlb/internal/rng"
	"srlb/internal/srv6"
	"srlb/internal/tcpseg"
	"srlb/internal/testbed"
)

// The dispatch rigs measure bare LB forwarding: a generated topology of
// 10,000 VIPs over 16 shared pools of 12 servers whose network drops
// every delivery after the marshal (LossProb=1), so a Handle call does
// exactly the LB's work — VIP index, flow table, selection, SRH, wire
// encode, counters — and no simulated application runs. One caller,
// closed loop: the next packet is offered when Handle returns.
const (
	rigVIPs           = 10000
	rigPools          = 16
	rigServersPerPool = 12
	rigClients        = 8
	// orderLen is the length of the seed-derived scatter sequence the
	// loops walk (a power of two, so wrapping is a mask).
	orderLen = 1 << 20
)

type rigShape struct {
	vips, flows int
}

type dispatchRig struct {
	tb      *testbed.Testbed
	vips    []netip.Addr
	clients []netip.Addr
	order   []uint32
	pkt     packet.Packet

	// handled counts the packets this rig's loops handed to Handle.
	handled uint64
	// mark is the counter snapshot taken when the traced pass began.
	mark rigCounts
}

// rigCounts snapshots the counters the per-layer metrics are read from,
// so a pass can report its own deltas on a rig that has run before.
type rigCounts struct {
	flows                         flowtable.Stats
	steered, hunts, closing, slow uint64
	lbIncs, netIncs, txBytes      uint64
}

func (r *dispatchRig) counts() rigCounts {
	lb, net := r.tb.LB.Counts, r.tb.Net.Counts
	return rigCounts{
		flows:   r.tb.LB.FlowStats(),
		steered: lb.Get("steered"), hunts: lb.Get("hunts_started"), closing: lb.Get("closing_observed"),
		slow:   lb.Get("miss_fallback") + lb.Get("miss_dropped") + lb.Get("syn_rebound") + lb.Get("flowlet_resteer"),
		lbIncs: counterIncs(lb), netIncs: counterIncs(net), txBytes: net.Get("tx_bytes"),
	}
}

func (c rigCounts) minus(b rigCounts) rigCounts {
	c.flows.Hits -= b.flows.Hits
	c.flows.Misses -= b.flows.Misses
	c.flows.Inserts -= b.flows.Inserts
	c.flows.Evictions -= b.flows.Evictions
	c.flows.Expiries -= b.flows.Expiries
	c.flows.Rebinds -= b.flows.Rebinds
	c.steered -= b.steered
	c.hunts -= b.hunts
	c.closing -= b.closing
	c.slow -= b.slow
	c.lbIncs -= b.lbIncs
	c.netIncs -= b.netIncs
	c.txBytes -= b.txBytes
	return c
}

func newDispatchRig(seed uint64, shape rigShape) *dispatchRig {
	top := testbed.GenerateTopology(testbed.GenSpec{
		Seed: seed, VIPs: shape.vips, Pools: rigPools, ServersPerPool: rigServersPerPool, Clients: rigClients,
	})
	top.Net.LossProb = 1
	r := &dispatchRig{
		tb:      testbed.Build(top),
		vips:    make([]netip.Addr, shape.vips),
		clients: make([]netip.Addr, rigClients),
		order:   make([]uint32, orderLen),
	}
	for v := range r.vips {
		r.vips[v] = testbed.VIPAddr(v)
	}
	for j := range r.clients {
		r.clients[j] = testbed.ClientAddr(j)
	}
	scatter := rng.Split(seed, 0x5ca7)
	for i := range r.order {
		r.order[i] = scatter.Uint32()
	}
	return r
}

// fill makes the rig's packet a client packet of flow k.
func (r *dispatchRig) fill(k *packet.FlowKey, flags tcpseg.Flags) {
	r.pkt.IP.Src, r.pkt.IP.Dst = k.Src, k.Dst
	r.pkt.TCP = tcpseg.Segment{SrcPort: k.SrcPort, DstPort: k.DstPort, Flags: flags}
	r.pkt.SRH = nil
}

// dispatch hands the rig's packet to the LB — with a span of class c
// around the call when tr is non-nil; k is the client's view of the flow
// the packet belongs to.
func (r *dispatchRig) dispatch(tr *tracer, k *packet.FlowKey, c class) {
	r.handled++
	if tr == nil {
		r.tb.LB.Handle(&r.pkt)
		return
	}
	var id uint64
	if tr.rawOpen() {
		id = flowKeyID(*k)
	}
	start := time.Now()
	r.tb.LB.Handle(&r.pkt)
	tr.record(layerCore, c, id, start, time.Now(), 1)
	tr.sample(&r.pkt)
}

// unforwarded is the number of packets offered so far that did not leave
// the LB as a transmission: the rig's failed ops.
func (r *dispatchRig) unforwarded() int64 {
	return int64(r.handled) - int64(r.tb.Net.Counts.Get("tx"))
}

// checkForwarding verifies that every offered packet left the LB as one
// transmission and none took a drop path.
func (r *dispatchRig) checkForwarding() error {
	if n := r.unforwarded(); n != 0 {
		return fmt.Errorf("dispatch: %d packets offered, %d not transmitted", r.handled, n)
	}
	for _, key := range []string{"miss_dropped", "unknown_vip", "no_candidates", "to_lb_no_srh",
		"return_bad_segment", "return_no_server", "return_exhausted"} {
		if n := r.tb.LB.Counts.Get(key); n != 0 {
			return fmt.Errorf("dispatch: LB counted %d %s", n, key)
		}
	}
	return nil
}

// checkExpiry verifies the table drains: past the idle TTL one sweep
// must leave no flow behind.
func (r *dispatchRig) checkExpiry() error {
	r.tb.Sim.RunFor(61 * time.Second) // flowtable's default IdleTTL is 60s
	r.tb.LB.SweepNow()
	if n := r.tb.LB.FlowCount(); n != 0 {
		return fmt.Errorf("dispatch: %d flows survive the idle TTL and a sweep", n)
	}
	return nil
}

// steeredRunner is the fast path: payload-less ACKs of seeded flows, in
// a scattered order over a working set larger than the CPU caches.
type steeredRunner struct {
	seed  uint64
	shape rigShape
	batch int

	rig   *dispatchRig
	flows []packet.FlowKey
	cur   uint32
}

func newSteered(seed uint64) *steeredRunner {
	return &steeredRunner{seed: seed, shape: rigShape{vips: rigVIPs, flows: 65536}, batch: 50000}
}

func (s *steeredRunner) opName() string  { return "packet" }
func (s *steeredRunner) spans() bool     { return true }
func (s *steeredRunner) defaultOps() int { return s.batch }
func (s *steeredRunner) warmupOps() int  { return 10 * s.batch }
func (s *steeredRunner) traceOps(sec float64) int {
	return roundTo(int(4*float64(s.batch)*sec), s.batch)
}

// rigBuilds is how many times a rig is built for setup_s; the median is
// reported and the last build is kept.
const rigBuilds = 9

// medianSeconds runs build rigBuilds times and returns the median time.
func medianSeconds(build func()) float64 {
	samples := make([]float64, rigBuilds)
	for i := range samples {
		t0 := time.Now()
		build()
		samples[i] = time.Since(t0).Seconds()
	}
	return median(samples)
}

// setup builds the rig, seeds its flow table and generates the scatter
// order.
func (s *steeredRunner) setup() float64 { return medianSeconds(s.build) }

func (s *steeredRunner) build() {
	s.rig = newDispatchRig(deriveSeed(s.seed, 0), s.shape)
	r := s.rig
	s.flows = make([]packet.FlowKey, s.shape.flows)
	pick := rng.Split(s.seed, 0xf10e)
	seen := make(map[packet.FlowKey]bool, len(s.flows))
	for i := range s.flows {
		for {
			v := pick.IntN(len(r.vips))
			k := packet.FlowKey{
				Src: r.clients[pick.IntN(len(r.clients))], Dst: r.vips[v],
				SrcPort: uint16(1024 + pick.IntN(64000)), DstPort: servicePort,
			}
			if seen[k] {
				continue
			}
			seen[k] = true
			s.flows[i] = k
			server := testbed.SharedPoolServerAddr(v%rigPools, pick.IntN(rigServersPerPool))
			r.tb.LB.SeedFlow(k, server)
			break
		}
	}
}

func (s *steeredRunner) round(p *pass, tr *tracer, _ uint64, ops int) {
	r := s.rig
	if tr != nil {
		r.mark = r.counts()
	}
	mask := uint32(len(r.order) - 1)
	n := uint32(len(s.flows))
	lost := r.unforwarded()
	for done := 0; done < ops; done += s.batch {
		t0 := time.Now()
		for i := 0; i < s.batch; i++ {
			k := &s.flows[r.order[s.cur&mask]%n]
			s.cur++
			r.fill(k, tcpseg.FlagACK)
			r.dispatch(tr, k, classSteered)
		}
		d := time.Since(t0)
		p.wall += d
		p.batchNS = append(p.batchNS, float64(d)/float64(s.batch))
		if tr != nil {
			tr.flowLen.observe(r.tb.LB.FlowCount())
			tr.observeHeap()
		}
	}
	p.ops += int64(ops)
	p.pkts += uint64(ops)
	p.failed += r.unforwarded() - lost
}

func (s *steeredRunner) verify() error {
	if err := s.rig.checkForwarding(); err != nil {
		return err
	}
	if got := s.rig.tb.LB.FlowCount(); got != len(s.flows) {
		return fmt.Errorf("dispatch_steered: %d flows tracked, %d seeded", got, len(s.flows))
	}
	return s.rig.checkExpiry()
}

// churnRunner is the connection set-up/tear-down path. Per connection:
// a SYN (Pick + hunt SRH), the SYN-ACK coming back through the LB (flow
// learned), one steered ACK, on three connections of four a FIN, and
// 1 ms of simulated time so idle expiry and the periodic sweep run
// against the ≈17k entries that are live in steady state.
type churnRunner struct {
	seed  uint64
	shape rigShape
	batch int

	rig   *dispatchRig
	ret   *srv6.SRH // the reused SYN-ACK SRH [server, LB, client]
	conns uint64
}

func newChurn(seed uint64) *churnRunner {
	return &churnRunner{seed: seed, shape: rigShape{vips: rigVIPs}, batch: 10000}
}

func (c *churnRunner) opName() string  { return "connection" }
func (c *churnRunner) spans() bool     { return true }
func (c *churnRunner) defaultOps() int { return c.batch }
func (c *churnRunner) warmupOps() int  { return 15 * c.batch }
func (c *churnRunner) traceOps(sec float64) int {
	return roundTo(int(6*float64(c.batch)*sec), c.batch)
}

func (c *churnRunner) setup() float64 {
	return medianSeconds(func() {
		c.rig = newDispatchRig(deriveSeed(c.seed, 0), c.shape)
		c.ret = srv6.MustNew(ipv6.ProtoTCP, c.rig.clients[0], testbed.LBAddr, c.rig.clients[0])
		c.conns = 0
	})
}

// connection runs one connection through the LB; tr may be nil.
func (c *churnRunner) connection(tr *tracer) {
	r := c.rig
	n := c.conns
	c.conns++
	k := packet.FlowKey{
		Src:     r.clients[n%rigClients],
		Dst:     r.vips[r.order[n&(orderLen-1)]%uint32(len(r.vips))],
		SrcPort: uint16(1024 + (n/rigClients)%60000), DstPort: servicePort,
	}

	r.fill(&k, tcpseg.FlagSYN)
	r.dispatch(tr, &k, classSYN)
	// The LB rewrote the packet in place: its destination is now the
	// first candidate, which this loop lets accept.
	server := r.pkt.IP.Dst

	// SYN-ACK {server, LB, client} with the LB as the active segment.
	c.ret.Segments[0], c.ret.Segments[2], c.ret.SegmentsLeft = k.Src, server, 1
	r.pkt.IP.Src, r.pkt.IP.Dst = k.Dst, testbed.LBAddr
	r.pkt.TCP = tcpseg.Segment{SrcPort: k.DstPort, DstPort: k.SrcPort, Flags: tcpseg.FlagSYN | tcpseg.FlagACK}
	r.pkt.SRH = c.ret
	r.dispatch(tr, &k, classReturn)

	r.fill(&k, tcpseg.FlagACK)
	r.dispatch(tr, &k, classSteered)
	if n%4 != 0 {
		r.fill(&k, tcpseg.FlagACK|tcpseg.FlagFIN)
		r.dispatch(tr, &k, classFIN)
	}
	r.tb.Sim.RunFor(time.Millisecond)
}

func (c *churnRunner) round(p *pass, tr *tracer, _ uint64, ops int) {
	if tr != nil {
		c.rig.mark = c.rig.counts()
	}
	lost := c.rig.unforwarded()
	for done := 0; done < ops; done += c.batch {
		before := c.rig.handled
		t0 := time.Now()
		for i := 0; i < c.batch; i++ {
			c.connection(tr)
		}
		d := time.Since(t0)
		p.wall += d
		p.batchNS = append(p.batchNS, float64(d)/float64(c.batch))
		p.pkts += c.rig.handled - before
		if tr != nil {
			tr.flowLen.observe(c.rig.tb.LB.FlowCount())
			tr.observeHeap()
		}
	}
	p.ops += int64(ops)
	// A connection fails when one of its packets is not forwarded.
	p.failed += min(c.rig.unforwarded()-lost, int64(ops))
}

func (c *churnRunner) verify() error {
	if err := c.rig.checkForwarding(); err != nil {
		return err
	}
	if learned := c.rig.tb.LB.Counts.Get("flows_learned"); learned != c.conns {
		return fmt.Errorf("dispatch_churn: %d connections, %d flows learned", c.conns, learned)
	}
	return c.rig.checkExpiry()
}
