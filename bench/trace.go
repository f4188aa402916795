package main

import (
	"encoding/binary"
	"hash/fnv"
	"net/netip"
	"time"

	"srlb/internal/netsim"
	"srlb/internal/packet"
	"srlb/internal/sketch"
	"srlb/internal/tcpseg"
	"srlb/internal/testbed"
)

// Spans are recorded from bench/ only: a netsim.Node wrapper timestamps
// around the wrapped node's Handle (simulated workloads), or the
// dispatch loop timestamps its own Handle calls. In the simulator no
// Handle nests inside another — every hop is its own DES event — so a
// span's parent is the previous span of the same flow, not an enclosing
// one.

type layer uint8

const (
	layerCore layer = iota
	layerVRouter
	layerTestbed
	layerExperiments
	numLayers
)

var layerNames = [numLayers]string{"core", "vrouter", "testbed", "experiments"}

// class is the packet class of a span, read off the TCP flags before the
// wrapped node mutates the packet.
type class uint8

const (
	classSYN      class = iota // initial SYN: hunt start (LB), offer (server)
	classReturn                // SYN-ACK on its way back through the LB
	classSteered               // mid-flow ACK, with or without request bytes
	classFIN                   // client close
	classResponse              // server response (data + FIN) at the client
	classRST                   // refusal
	classCell                  // one cell of a sweep (fig2_sweep's only spans)
	numClasses
)

var classNames = [numClasses]string{"syn", "return", "steered", "fin", "response", "rst", "cell"}

func classify(pkt *packet.Packet) class {
	f := pkt.TCP.Flags
	switch {
	case f.Has(tcpseg.FlagRST):
		return classRST
	case f.Has(tcpseg.FlagSYN | tcpseg.FlagACK):
		return classReturn
	case f.Has(tcpseg.FlagSYN):
		return classSYN
	case f.Has(tcpseg.FlagFIN) && len(pkt.TCP.Payload) > 0:
		return classResponse
	case f.Has(tcpseg.FlagFIN):
		return classFIN
	default:
		return classSteered
	}
}

// clientFlowID hashes the client's view of the connection (client
// address/port, service address/port), whichever direction pkt travels:
// the service side is the one on port 80.
func clientFlowID(pkt *packet.Packet) uint64 {
	k := pkt.Flow()
	if k.SrcPort == servicePort {
		k = k.Reverse()
	}
	return flowKeyID(k)
}

func flowKeyID(k packet.FlowKey) uint64 {
	h := fnv.New64a()
	src, dst := k.Src.As16(), k.Dst.As16()
	h.Write(src[:])
	h.Write(dst[:])
	var ports [4]byte
	binary.BigEndian.PutUint16(ports[0:2], k.SrcPort)
	binary.BigEndian.PutUint16(ports[2:4], k.DstPort)
	h.Write(ports[:])
	return h.Sum64()
}

const servicePort = 80

// spanAgg is the in-memory aggregate of one (layer, class).
type spanAgg struct {
	count uint64
	total time.Duration
	sends uint64 // netsim transmissions made inside the spans
	hist  *sketch.Histogram
}

// rawSpan is one recorded span of a kept flow, as written to trace.json.
type rawSpan struct {
	Layer   string `json:"layer"`
	Class   string `json:"class"`
	FlowID  uint64 `json:"flow_id"`
	StartNS int64  `json:"start_ns"`
	EndNS   int64  `json:"end_ns"`
	// Parent indexes the flow's previous span in this list (-1: first).
	Parent int32 `json:"parent"`
}

// The first maxRawFlows flows keep their raw spans; every span lands in
// the aggregates. Raw capture closes (and the per-span flow hash with
// it) once rawTail spans of later flows have gone by, by which time the
// kept flows have long completed.
const (
	maxRawFlows = 1000
	rawTail     = 32 * maxRawFlows
)

// gauge tracks the mean and peak of a sampled level.
type gauge struct {
	sum  float64
	n    uint64
	peak int
}

func (g *gauge) observe(v int) {
	g.sum += float64(v)
	g.n++
	if v > g.peak {
		g.peak = v
	}
}

func (g *gauge) mean() float64 {
	if g.n == 0 {
		return 0
	}
	return g.sum / float64(g.n)
}

// tracer is the traced pass's recorder.
type tracer struct {
	t0   time.Time
	aggs [numLayers][numClasses]spanAgg

	raw      []rawSpan
	lastSpan map[uint64]int32
	skipped  int // spans of flows that arrived after the kept ones

	// deliveries counts netsim deliveries by destination kind (the Tap).
	deliveries [numKinds]uint64
	// packets samples the delivered packet mix for the codec isolates.
	packets []*packet.Packet

	flowLen, desPending, busy, queue, genPending gauge
	staleChecks, staleHits                       uint64
	heapPeak                                     uint64
}

func newTracer() *tracer {
	t := &tracer{t0: time.Now(), lastSpan: make(map[uint64]int32, maxRawFlows)}
	for l := range t.aggs {
		for c := range t.aggs[l] {
			t.aggs[l][c].hist = sketch.New()
		}
	}
	return t
}

func (t *tracer) rawOpen() bool { return t.skipped < rawTail }

// record folds one span into the aggregates and, for a kept flow, the
// raw list. flowID is ignored once raw capture has closed.
func (t *tracer) record(l layer, c class, flowID uint64, start, end time.Time, sends uint64) {
	d := end.Sub(start)
	a := &t.aggs[l][c]
	a.count++
	a.total += d
	a.sends += sends
	a.hist.Add(d)
	if !t.rawOpen() {
		return
	}
	parent, known := t.lastSpan[flowID]
	if !known {
		if len(t.lastSpan) >= maxRawFlows {
			t.skipped++
			return
		}
		parent = -1
	}
	t.lastSpan[flowID] = int32(len(t.raw))
	t.raw = append(t.raw, rawSpan{
		Layer: layerNames[l], Class: classNames[c], FlowID: flowID,
		StartNS: start.Sub(t.t0).Nanoseconds(), EndNS: end.Sub(t.t0).Nanoseconds(),
		Parent: parent,
	})
}

// layerTotal sums a layer's spans over every class. The total is net of
// the clock reads: a span's two timestamps bracket about one
// time.Now() of latency on top of the wrapped call.
func (t *tracer) layerTotal(l layer) (total time.Duration, count, sends uint64) {
	for c := range t.aggs[l] {
		a := &t.aggs[l][c]
		total += a.total
		count += a.count
		sends += a.sends
	}
	return total - time.Duration(count)*timerCost, count, sends
}

func (t *tracer) spans() uint64 {
	var n uint64
	for l := layer(0); l < numLayers; l++ {
		_, c, _ := t.layerTotal(l)
		n += c
	}
	return n
}

// p50 returns the median span duration of (layer, class) in ns.
func (t *tracer) p50(l layer, c class) float64 {
	a := &t.aggs[l][c]
	if a.count == 0 {
		return 0
	}
	return float64(a.hist.Quantile(0.5))
}

// layerP50 returns the median span duration of a layer across classes.
func (t *tracer) layerP50(l layer) float64 {
	merged := sketch.New()
	for c := range t.aggs[l] {
		merged.Merge(t.aggs[l][c].hist)
	}
	if merged.Count() == 0 {
		return 0
	}
	return float64(merged.Quantile(0.5))
}

// sample keeps a copy of pkt for the codec isolates until it has enough.
func (t *tracer) sample(pkt *packet.Packet) {
	if len(t.packets) < samplePackets {
		t.packets = append(t.packets, pkt.Clone())
	}
}

func (t *tracer) observeHeap() {
	if h := heapObjects(); h > t.heapPeak {
		t.heapPeak = h
	}
}

// destination kinds counted by the delivery tap.
const (
	kindLB = iota
	kindVIP
	kindServer
	kindClient
	numKinds
)

var kindNames = [numKinds]string{"lb", "vip", "server", "client"}

// samplePackets is how many packets are cloned for the codec isolates
// (the first ones seen: the mix is stationary).
const samplePackets = 512

// spanNode wraps one attached node: it classifies the packet, lets the
// layer sample its gauges, and timestamps around the inner Handle. The
// transmissions made inside the span are read off the network's tx
// counter, so self time can subtract them.
type spanNode struct {
	inner netsim.Node
	layer layer
	tr    *tracer
	net   *netsim.Network
	probe func()
}

func (n *spanNode) Handle(pkt *packet.Packet) {
	c := classify(pkt)
	var id uint64
	if n.tr.rawOpen() {
		id = clientFlowID(pkt)
	}
	n.probe()
	tx0 := n.net.Counts.Get("tx")
	start := time.Now()
	n.inner.Handle(pkt)
	end := time.Now()
	n.tr.record(n.layer, c, id, start, end, n.net.Counts.Get("tx")-tx0)
}

// install re-binds every address of a single-replica testbed with the
// given number of client addresses to a span wrapper and adds the
// delivery tap. It runs in the PoissonHooks.Testbed hook, before the
// first arrival; it draws no randomness and schedules nothing, so the
// simulation's outcome is unchanged (bench_test pins the digest).
func (t *tracer) install(tb *testbed.Testbed, clients int) {
	kinds := make(map[netip.Addr]uint8)
	rebind := func(inner netsim.Node, l layer, kind uint8, probe func(), addrs ...netip.Addr) {
		w := &spanNode{inner: inner, layer: l, tr: t, net: tb.Net, probe: probe}
		for _, a := range addrs {
			if !tb.Net.Detach(inner, a) {
				panic("bench: address " + a.String() + " is not bound to the node the testbed reports")
			}
			tb.Net.Attach(w, a)
			kinds[a] = kind
		}
	}

	servers := make([]netip.Addr, len(tb.Routers))
	for i, rt := range tb.Routers {
		servers[i] = rt.Addr()
	}
	var coreSpans uint64
	rebind(tb.LB, layerCore, kindLB, func() {
		t.flowLen.observe(tb.LB.FlowCount())
		t.desPending.observe(tb.Sim.Pending())
		coreSpans++
		if tb.Feedback != nil && coreSpans%64 == 0 {
			view := tb.Feedback.For(testbed.VIP)
			for _, s := range servers {
				t.staleChecks++
				if _, fresh := view.ServerLoad(s); !fresh {
					t.staleHits++
				}
			}
		}
		if coreSpans%8192 == 0 {
			t.observeHeap()
		}
	}, testbed.LBAddr, testbed.VIP)
	kinds[testbed.VIP] = kindVIP
	for _, rt := range tb.Routers {
		srv := rt.Server()
		rebind(rt, layerVRouter, kindServer, func() {
			t.busy.observe(srv.BusyWorkers())
			t.queue.observe(srv.QueueLen())
		}, rt.Addr())
	}
	clientAddrs := make([]netip.Addr, clients)
	for j := range clientAddrs {
		clientAddrs[j] = testbed.ClientAddr(j)
	}
	rebind(tb.Gen, layerTestbed, kindClient, func() {
		t.genPending.observe(tb.Gen.Pending())
	}, clientAddrs...)

	tb.Net.AddTap(func(_ time.Duration, dst netip.Addr, pkt *packet.Packet) {
		t.deliveries[kinds[dst]]++
		t.sample(pkt)
	})
}

// traceWorkload is one workload's part of trace.json.
type traceWorkload struct {
	Workload   string            `json:"workload"`
	Seed       uint64            `json:"seed"`
	Aggregates []traceAggregate  `json:"aggregates"`
	Deliveries map[string]uint64 `json:"deliveries,omitempty"`
	Spans      []rawSpan         `json:"spans"`
}

type traceAggregate struct {
	Layer   string  `json:"layer"`
	Class   string  `json:"class"`
	Count   uint64  `json:"count"`
	TotalNS int64   `json:"total_ns"`
	Sends   uint64  `json:"sends"`
	P50NS   float64 `json:"p50_ns"`
	P90NS   float64 `json:"p90_ns"`
	P99NS   float64 `json:"p99_ns"`
}

func (t *tracer) export(workload string, seed uint64) traceWorkload {
	out := traceWorkload{Workload: workload, Seed: seed, Spans: t.raw}
	for l := range t.aggs {
		for c := range t.aggs[l] {
			a := &t.aggs[l][c]
			if a.count == 0 {
				continue
			}
			out.Aggregates = append(out.Aggregates, traceAggregate{
				Layer: layerNames[l], Class: classNames[c],
				Count: a.count, TotalNS: a.total.Nanoseconds(), Sends: a.sends,
				P50NS: float64(a.hist.Quantile(0.5)),
				P90NS: float64(a.hist.Quantile(0.9)),
				P99NS: float64(a.hist.Quantile(0.99)),
			})
		}
	}
	for k, n := range t.deliveries {
		if n > 0 {
			if out.Deliveries == nil {
				out.Deliveries = make(map[string]uint64)
			}
			out.Deliveries[kindNames[k]] = n
		}
	}
	return out
}
