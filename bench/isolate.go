package main

import (
	"net/netip"
	"runtime"
	"time"

	"srlb/internal/appserver"
	"srlb/internal/des"
	"srlb/internal/feedback"
	"srlb/internal/flowtable"
	"srlb/internal/ipv6"
	"srlb/internal/metrics"
	"srlb/internal/netsim"
	"srlb/internal/packet"
	"srlb/internal/rng"
	"srlb/internal/selection"
	"srlb/internal/sketch"
	"srlb/internal/srv6"
	"srlb/internal/testbed"
)

// The isolates time one layer's public function on its own, at the shape
// the traced pass observed (packet mix, table size, busy level, pending
// population). They are warm-cache unit costs: multiplied by the traced
// call counts they say how much of an op a layer can account for at
// best, and the ledger's residue is what only shows in situ.

// isolateReps loops are timed per isolate; the median is reported.
const isolateReps = 5

// isolateOps is the loop length of an isolate (some use a fixed multiple
// or fraction of it). The smoke test shrinks it.
var isolateOps = 200000

// perOp times fn, which performs n operations, isolateReps times and
// returns the median cost of one operation in ns.
func perOp(n int, fn func()) float64 {
	samples := make([]float64, isolateReps)
	for i := range samples {
		t0 := time.Now()
		fn()
		samples[i] = float64(time.Since(t0)) / float64(n)
	}
	return median(samples)
}

// allocsPerOp runs fn (n operations) once and returns mallocs per op.
func allocsPerOp(n int, fn func()) float64 {
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	fn()
	runtime.ReadMemStats(&after)
	return float64(after.Mallocs-before.Mallocs) / float64(n)
}

var isolateSink int

// codecCosts times packet.Marshal and packet.ParseInto over the given
// packet mix.
func codecCosts(pkts []*packet.Packet) (marshalNS, parseNS, allocsPerPkt float64) {
	if len(pkts) == 0 {
		return 0, 0, 0
	}
	n := isolateOps
	wires := make([][]byte, len(pkts))
	for i, p := range pkts {
		w, err := p.Marshal(nil)
		if err != nil {
			panic(err)
		}
		wires[i] = w
	}
	buf := make([]byte, 0, 256)
	marshal := func() {
		for i := 0; i < n; i++ {
			buf, _ = pkts[i%len(pkts)].Marshal(buf[:0])
		}
	}
	var into packet.Packet
	parse := func() {
		for i := 0; i < n; i++ {
			if err := packet.ParseInto(&into, wires[i%len(wires)], false); err != nil {
				panic(err)
			}
		}
	}
	marshalNS, parseNS = perOp(n, marshal), perOp(n, parse)
	allocsPerPkt = allocsPerOp(n, func() { marshal(); parse() })
	return marshalNS, parseNS, allocsPerPkt
}

// srhCosts times srv6.New for the two SRH shapes the data plane builds:
// 2 segments (steer: server, VIP) and 3 (hunt: two candidates, VIP; or
// SYN-ACK: server, LB, client).
func srhCosts() (new2NS, new3NS, allocsPerNew float64) {
	n := isolateOps
	segs := []netip.Addr{testbed.ServerAddr(0), testbed.ServerAddr(1), testbed.VIP}
	mk := func(k int) func() {
		return func() {
			for i := 0; i < n; i++ {
				h, err := srv6.New(ipv6.ProtoTCP, segs[3-k:]...)
				if err != nil {
					panic(err)
				}
				isolateSink += len(h.Segments)
			}
		}
	}
	return perOp(n, mk(2)), perOp(n, mk(3)), allocsPerOp(n, mk(2))
}

// hopCost times one netsim hop over the packet mix: Send (marshal,
// counters, schedule), the DES step that fires the delivery, and deliver
// (parse, node lookup, counters) into a no-op node. With lossy set it
// times the dispatch rigs' hop instead: Send into a network that drops
// every packet after the marshal.
func hopCost(pkts []*packet.Packet, lossy bool) float64 {
	if len(pkts) == 0 {
		return 0
	}
	n := isolateOps / 2
	sim := des.New()
	cfg := netsim.Config{}
	if lossy {
		cfg.LossProb = 1
	}
	net := netsim.New(sim, cfg)
	sink := netsim.NodeFunc(func(*packet.Packet) {})
	attached := make(map[netip.Addr]bool)
	for _, p := range pkts {
		if !attached[p.IP.Dst] {
			attached[p.IP.Dst] = true
			net.Attach(sink, p.IP.Dst)
		}
	}
	return perOp(n, func() {
		for i := 0; i < n; i++ {
			net.Send(pkts[i%len(pkts)])
			sim.Step()
		}
	})
}

// tableCosts are the flow table's unit costs on a table holding a given
// number of entries, keyed like the workloads' flows.
type tableCosts struct {
	lookupNS, insertNS, markClosingNS, sweepNSPerEntry float64
}

func flowtableCosts(size int) tableCosts {
	if size < 16 {
		size = 16
	}
	n := max(size, isolateOps/50)
	key := func(i int) packet.FlowKey {
		return packet.FlowKey{
			Src: testbed.ClientAddr(i % 8), Dst: testbed.VIPAddr(i % 4096),
			SrcPort: uint16(i/8%60000 + 1024), DstPort: servicePort,
		}
	}
	keys, fresh := make([]packet.FlowKey, size), make([]packet.FlowKey, n)
	for i := range keys {
		keys[i] = key(i)
	}
	for i := range fresh {
		fresh[i] = key(size + i)
	}
	r := rng.New(0x7ab1e)
	order := make([]int32, n)
	for i := range order {
		order[i] = int32(r.IntN(size))
	}
	backend := testbed.ServerAddr(0)
	// Every repetition starts from a freshly filled table and times only
	// its own loop.
	timed := func(ops int, body func(t *flowtable.Table)) float64 {
		samples := make([]float64, isolateReps)
		for i := range samples {
			t := flowtable.New(flowtable.Config{})
			for _, k := range keys {
				t.Insert(0, k, backend)
			}
			t0 := time.Now()
			body(t)
			samples[i] = float64(time.Since(t0)) / float64(ops)
		}
		return median(samples)
	}
	var tc tableCosts
	tc.lookupNS = timed(n, func(t *flowtable.Table) {
		for _, k := range order {
			if _, ok := t.Lookup(time.Second, keys[k]); ok {
				isolateSink++
			}
		}
	})
	tc.insertNS = timed(n, func(t *flowtable.Table) {
		for _, k := range fresh {
			t.Insert(time.Second, k, backend)
		}
	})
	tc.markClosingNS = timed(n, func(t *flowtable.Table) {
		for _, k := range order {
			if t.MarkClosing(time.Second, keys[k]) {
				isolateSink++
			}
		}
	})
	// A sweep that finds nothing expired: the walk the LB pays once per
	// simulated second whatever the expiry rate.
	const sweeps = 8
	tc.sweepNSPerEntry = timed(sweeps*size, func(t *flowtable.Table) {
		for i := 0; i < sweeps; i++ {
			isolateSink += t.Sweep(time.Second)
		}
	})
	return tc
}

// pickCost times the scheme's Pick over a 12-server pool.
func pickCost(flowlet bool) float64 {
	n := isolateOps
	servers := poolAddrs(12)
	var scheme selection.Scheme = selection.NewRandom(servers, 2, rng.New(1))
	if flowlet {
		scheme = selection.NewFlowlet(servers, 0, rng.New(1), nil)
	}
	flow := packet.FlowKey{Src: testbed.ClientAddr(0), Dst: testbed.VIP, SrcPort: 1024, DstPort: servicePort}
	return perOp(n, func() {
		for i := 0; i < n; i++ {
			isolateSink += len(scheme.Pick(flow))
		}
	})
}

func poolAddrs(n int) []netip.Addr {
	out := make([]netip.Addr, n)
	for i := range out {
		out[i] = testbed.ServerAddr(i)
	}
	return out
}

// resteerCost times Flowlet.Resteer at a flowlet boundary with every
// report fresh — the branch that draws candidates and compares loads.
func resteerCost() float64 {
	n := isolateOps
	servers := poolAddrs(12)
	var now time.Duration
	view := feedback.NewView(feedback.Config{Enabled: true}, func() time.Duration { return now })
	pub := feedback.NewPublisher(0)
	for i, s := range servers {
		view.Ingest(testbed.VIP, s, pub.Sample(now, i, 32, i))
	}
	f := selection.NewFlowlet(servers, 0, rng.New(1), view.For(testbed.VIP))
	flow := packet.FlowKey{Src: testbed.ClientAddr(0), Dst: testbed.VIP, SrcPort: 1024, DstPort: servicePort}
	idle := 2 * f.Gap()
	return perOp(n, func() {
		for i := 0; i < n; i++ {
			if _, move := f.Resteer(now, flow, idle, servers[i%len(servers)]); move {
				isolateSink++
			}
		}
	})
}

// offerCosts times appserver.Offer and the completion event it leads to,
// on a server that stays at the given busy level: busy long requests
// hold their workers, and each timed request is admitted, completes at
// the next DES step and leaves.
func offerCosts(busy int) (offerNS, completeNS float64) {
	n := isolateOps / 4
	cfg := appserver.Default()
	if busy >= cfg.Workers {
		busy = cfg.Workers - 1
	}
	run := func() (offer, complete time.Duration) {
		sim := des.New()
		srv := appserver.New(sim, "isolate", cfg)
		for i := 0; i < busy; i++ {
			srv.Offer(1000*time.Hour, nil)
		}
		for i := 0; i < n; i++ {
			t0 := time.Now()
			srv.Offer(time.Microsecond, func() { isolateSink++ })
			t1 := time.Now()
			sim.Step()
			t2 := time.Now()
			offer += t1.Sub(t0)
			complete += t2.Sub(t1)
		}
		return offer, complete
	}
	offers, completes := make([]float64, isolateReps), make([]float64, isolateReps)
	for i := range offers {
		o, c := run()
		offers[i] = float64(o)/float64(n) - float64(timerCost)
		completes[i] = float64(c)/float64(n) - float64(timerCost)
	}
	return median(offers), median(completes)
}

// stepCost times the DES kernel's schedule-and-fire cycle with the given
// number of events pending.
func stepCost(pending int) float64 {
	if pending < 1 {
		pending = 1
	}
	n := isolateOps
	sim := des.New()
	r := rng.New(7)
	spacing := 50 * time.Microsecond
	span := time.Duration(pending) * spacing
	nop := func() {}
	for i := 0; i < pending; i++ {
		sim.Schedule(time.Duration(r.Int64N(int64(span))), nop)
	}
	return perOp(n, func() {
		for i := 0; i < n; i++ {
			sim.Step()
			sim.ScheduleAfter(span, nop)
		}
	})
}

// idleRunForCost times Sim.RunFor on an empty queue — what the churn
// loop pays per connection to advance simulated time.
func idleRunForCost() float64 {
	n := isolateOps
	sim := des.New()
	return perOp(n, func() {
		for i := 0; i < n; i++ {
			sim.RunFor(time.Millisecond)
		}
	})
}

// launchCost times Generator.Launch into a network that drops the SYN:
// flow allocation, pending bookkeeping, payload encode, marshal.
func launchCost() float64 {
	const chunk = 256
	n := isolateOps / 4 / chunk * chunk
	tb := testbed.Build(testbed.Topology{Seed: 1, Net: netsim.Config{LossProb: 1}})
	samples := make([]float64, isolateReps)
	for i := range samples {
		var total time.Duration
		for done := 0; done < n; done += chunk {
			t0 := time.Now()
			for j := 0; j < chunk; j++ {
				tb.Gen.Launch(testbed.Query{ID: uint64(j), Demand: time.Millisecond})
			}
			total += time.Since(t0)
			tb.Gen.DrainPending()
		}
		samples[i] = float64(total) / float64(n)
	}
	return median(samples)
}

func sketchAddCost() float64 {
	n := 5 * isolateOps
	h := sketch.New()
	r := rng.New(11)
	samples := make([]time.Duration, 8192)
	for i := range samples {
		samples[i] = rng.Exp(r, 100*time.Millisecond)
	}
	return perOp(n, func() {
		for i := 0; i < n; i++ {
			h.Add(samples[i&8191])
		}
	})
}

// counterIncCost times metrics.Counter.Inc over warmed keys, cycling the
// LB's steered-path set so the string hash is not the same key twice.
func counterIncCost() float64 {
	n := 5 * isolateOps
	c := metrics.NewCounter()
	keys := []string{"steered", "tx", "rx", "syn_rx", "hunts_started", "returns_relayed", "flows_learned", "responses_tx"}
	for _, k := range keys {
		c.Inc(k)
	}
	return perOp(n, func() {
		for i := 0; i < n; i++ {
			c.Inc(keys[i&7])
		}
	})
}

// ingestCost times one server's Sample plus the view's Ingest.
func ingestCost() float64 {
	n := 2 * isolateOps
	var now time.Duration
	view := feedback.NewView(feedback.Config{Enabled: true}, func() time.Duration { return now })
	servers := poolAddrs(12)
	pubs := make([]*feedback.Publisher, len(servers))
	for i := range pubs {
		pubs[i] = feedback.NewPublisher(0)
		view.Ingest(testbed.VIP, servers[i], pubs[i].Sample(now, i, 32, i))
	}
	return perOp(n, func() {
		for i := 0; i < n; i++ {
			s := i % len(servers)
			now += time.Millisecond
			view.Ingest(testbed.VIP, servers[s], pubs[s].Sample(now, s, 32, i&31))
		}
	})
}
