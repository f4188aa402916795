package main

import (
	"math"

	"srlb/internal/experiments"
	"srlb/internal/metrics"
)

// ledgerRow is one line of the cost ledger, in host ns per op.
type ledgerRow struct {
	Layer   string  `json:"layer"`
	NSPerOp float64 `json:"ns_per_op"`
	// Basis says how the row was obtained: which isolated unit cost times
	// which traced count, or which span total minus what.
	Basis string `json:"basis"`
}

// ledger attributes an op's end-to-end cost to layers. Rows partition
// the op: a layer's isolated unit cost times its traced calls per op (B ×
// A), or — on the simulated workloads, for the nodes whose Handle the
// traced pass timed — the span total minus the sends made inside it,
// priced at the isolated marshal and netsim cost, which the packet and
// netsim rows carry. Inside lists what runs inside such a core row; those
// lines explain it and are not added again.
type ledger struct {
	EndToEndNS    float64     `json:"end_to_end_ns_per_op"`
	Rows          []ledgerRow `json:"rows"`
	Inside        []ledgerRow `json:"inside_core_self"`
	ExplainedNS   float64     `json:"explained_ns_per_op"`
	ExplainedFrac float64     `json:"explained_frac"`
	ResidueNS     float64     `json:"residue_ns_per_op"`
}

func (l *ledger) add(layer string, ns float64, basis string) {
	l.Rows = append(l.Rows, ledgerRow{layer, ns, basis})
}

func (l *ledger) inside(layer string, ns float64, basis string) {
	l.Inside = append(l.Inside, ledgerRow{layer, ns, basis})
}

// close sums the rows against the untraced reference pass and emits the
// two ledger metrics.
func (l *ledger) close(m *metricSet, ref *pass) {
	l.EndToEndNS = ref.nsPerOp()
	for _, r := range l.Rows {
		l.ExplainedNS += r.NSPerOp
	}
	l.ExplainedFrac = l.ExplainedNS / l.EndToEndNS
	l.ResidueNS = l.EndToEndNS - l.ExplainedNS
	m.set("ledger.explained_frac", l.ExplainedFrac)
	m.set("ledger.residue_ns_per_op", l.ResidueNS)
}

// counterIncs is the number of Counter.Inc/Addn calls behind a counter
// set: every key's value, except that tx_bytes grows by a packet length
// per call and is called once per tx.
func counterIncs(c *metrics.Counter) uint64 {
	var n uint64
	for _, k := range c.Keys() {
		if k == "tx_bytes" {
			n += c.Get("tx")
			continue
		}
		n += c.Get(k)
	}
	return n
}

// commonLayers emits what every traced workload shares: runtime and
// trace-overhead metrics, and the isolates that do not depend on shape.
func commonLayers(m *metricSet, ref, traced *pass, tr *tracer) (incNS float64) {
	m.set("runtime.gc_cpu_frac", ref.mem.gcCPU/ref.mem.cpu)
	m.set("runtime.gc_cycles_per_mop", float64(ref.mem.gcCycles)/(float64(ref.ops)/1e6))
	m.set("runtime.heap_peak_mb", float64(tr.heapPeak)/1e6)
	m.set("runtime.op_ns_p90", quantile(ref.batchNS, 0.9))
	m.set("trace.overhead_frac", (traced.nsPerOp()-ref.nsPerOp())/ref.nsPerOp())
	m.set("trace.spans", float64(tr.spans()))
	m.set("core.pkts_per_s", float64(ref.pkts)/ref.wall.Seconds())
	m.set("core.syn_ns", tr.p50(layerCore, classSYN))
	m.set("core.return_ns", tr.p50(layerCore, classReturn))
	m.set("core.steered_ns", tr.p50(layerCore, classSteered))
	incNS = counterIncCost()
	m.set("metrics.inc_ns", incNS)
	return incNS
}

// srhLayers and tableLayers run and emit the isolates both kinds of
// workload share.
func srhLayers(m *metricSet) (new2, new3 float64) {
	new2, new3, allocs := srhCosts()
	m.set("srv6.new2_ns", new2)
	m.set("srv6.new3_ns", new3)
	m.set("srv6.allocs_per_new", allocs)
	return new2, new3
}

func tableLayers(m *metricSet, tr *tracer) tableCosts {
	m.set("flowtable.len_mean", tr.flowLen.mean())
	m.set("flowtable.len_peak", float64(tr.flowLen.peak))
	tc := flowtableCosts(int(tr.flowLen.mean()))
	m.set("flowtable.lookup_ns", tc.lookupNS)
	m.set("flowtable.insert_ns", tc.insertNS)
	m.set("flowtable.mark_closing_ns", tc.markClosingNS)
	m.set("flowtable.sweep_ns_per_entry", tc.sweepNSPerEntry)
	return tc
}

// layers fills the per-layer metrics of a simulated cell from the
// traced round's spans, the nodes' exported counters, and the isolates.
func (c *cellRunner) layers(m *metricSet, ref, traced *pass, tr *tracer) *ledger {
	tb := c.tb
	ops := float64(traced.ops)
	net, lb, fs := tb.Net.Counts, tb.LB.Counts, tb.LB.FlowStats()
	incNS := commonLayers(m, ref, traced, tr)

	// Counts (A), all exact for a seed.
	hops, sends := float64(net.Get("rx")), float64(net.Get("tx"))
	m.set("packet.wire_bytes_per_op", float64(net.Get("tx_bytes"))/ops)
	m.set("netsim.hops_per_op", hops/ops)
	m.set("netsim.unroutable", float64(net.Get("unroutable")))
	coreTotal, coreCalls, coreSends := tr.layerTotal(layerCore)
	m.set("core.calls_per_op", float64(coreCalls)/ops)
	slow := lb.Get("miss_fallback") + lb.Get("miss_dropped") + lb.Get("syn_rebound") + lb.Get("flowlet_resteer")
	m.set("core.slow_path_frac", float64(slow)/float64(coreCalls))
	m.set("flowtable.hit_frac", float64(fs.Hits)/float64(fs.Hits+fs.Misses))
	m.set("flowtable.expiries_per_op", float64(fs.Expiries)/ops)
	m.set("flowtable.evictions", float64(fs.Evictions))
	m.set("selection.resteer_frac", float64(lb.Get("flowlet_resteer"))/ops)

	vrTotal, vrCalls, vrSends := tr.layerTotal(layerVRouter)
	var offers, refused, firstAccepts, forced, completed uint64
	incs := counterIncs(net) + counterIncs(lb) + counterIncs(tb.Gen.Counts)
	for i, rt := range tb.Routers {
		st := tb.Servers[i].Stats()
		offers += st.Admitted + st.Rejected + st.Dropped
		refused += st.Rejected
		completed += st.Completed
		firstAccepts += rt.Counts.Get("hunt_accepts")
		forced += rt.Counts.Get("forced_accepts")
		incs += counterIncs(rt.Counts)
	}
	m.set("vrouter.handle_ns", tr.layerP50(layerVRouter))
	m.set("vrouter.calls_per_op", float64(vrCalls)/ops)
	m.set("vrouter.offers_per_op", float64(offers)/ops)
	m.set("vrouter.first_accept_frac", float64(firstAccepts)/ops)
	m.set("vrouter.forced_accept_frac", float64(forced)/ops)
	m.set("appserver.busy_mean", tr.busy.mean())
	m.set("appserver.queue_peak", float64(tr.queue.peak))
	m.set("appserver.refused_frac", float64(refused)/float64(offers))
	events := float64(traced.events)
	m.set("des.events_per_op", events/ops)
	m.set("des.pending_peak", float64(tr.desPending.peak))
	m.set("des.events_per_s", float64(ref.events)/ref.wall.Seconds())
	genTotal, _, genSends := tr.layerTotal(layerTestbed)
	m.set("testbed.gen_handle_ns", tr.layerP50(layerTestbed))
	m.set("testbed.build_s", c.build.Seconds())
	m.set("testbed.pending_peak", float64(tr.genPending.peak))
	m.set("metrics.incs_per_op", float64(incs)/ops)
	var reports float64
	if tb.Feedback != nil {
		reports = float64(tb.Feedback.Stats().Ingests)
		m.set("feedback.reports_per_op", reports/ops)
		m.set("feedback.stale_frac", float64(tr.staleHits)/float64(tr.staleChecks))
	}
	m.set("sim.mean_rt_ms", c.run.RT.Mean().Seconds()*1e3)
	m.set("sim.p99_rt_ms", c.run.RT.Quantile(0.99).Seconds()*1e3)
	m.set("sim.refused", float64(c.run.Refused))
	m.set("sim.digest", float64(c.digest()))

	// Unit costs (B) at the traced shape.
	marshalNS, parseNS, pktAllocs := codecCosts(tr.packets)
	m.set("packet.marshal_ns", marshalNS)
	m.set("packet.parse_ns", parseNS)
	m.set("packet.allocs_per_pkt", pktAllocs)
	new2, new3 := srhLayers(m)
	stepNS := stepCost(int(tr.desPending.mean()))
	m.set("des.step_ns", stepNS)
	hopNS := hopCost(tr.packets, false)
	netSelf := hopNS - marshalNS - parseNS - stepNS
	m.set("netsim.send_deliver_ns", hopNS)
	m.set("netsim.self_ns", netSelf)
	tc := tableLayers(m, tr)
	// The LB sweeps at most once per simulated second, on the datapath:
	// one sweep per second of the arrival span.
	sweeps := ops / c.run.RatePerSec
	sweepNS := tc.sweepNSPerEntry * tr.flowLen.mean() * sweeps
	m.set("flowtable.sweep_share", sweepNS/float64(ref.wall.Nanoseconds()))
	flowlet := c.closeAck
	pickNS := pickCost(flowlet)
	m.set("selection.pick_ns", pickNS)
	var resteerNS float64
	if flowlet {
		resteerNS = resteerCost()
		m.set("selection.resteer_ns", resteerNS)
	}
	offerNS, completeNS := offerCosts(int(tr.busy.mean() + 0.5))
	offer32, complete32 := offerCosts(32)
	m.set("appserver.offer_ns", offerNS+completeNS)
	m.set("appserver.offer32_ns", offer32+complete32)
	launchNS := launchCost()
	m.set("testbed.launch_ns", launchNS)
	addNS := sketchAddCost()
	m.set("sketch.add_ns", addNS)
	var ingestNS float64
	if tb.Feedback != nil {
		ingestNS = ingestCost()
		m.set("feedback.ingest_ns", ingestNS)
	}

	// Ledger (C).
	sendNS := marshalNS + netSelf // what a span pays per transmission, as isolated
	coreSelf := float64(coreTotal)/ops - float64(coreSends)/ops*sendNS
	m.set("core.self_ns_per_op", coreSelf)
	var led ledger
	led.add("des", events/ops*stepNS, "des.step_ns × des.events_per_op")
	led.add("packet", sends/ops*marshalNS+hops/ops*parseNS, "packet.marshal_ns × sends + packet.parse_ns × hops")
	led.add("netsim", hops/ops*netSelf, "netsim.self_ns × netsim.hops_per_op")
	led.add("core", coreSelf, "core spans − sends × (marshal + netsim self)")
	led.add("vrouter", float64(vrTotal)/ops-float64(vrSends)/ops*sendNS-float64(offers)/ops*offerNS,
		"vrouter spans − sends × (marshal + netsim self) − offers × Offer call")
	led.add("appserver", float64(offers)/ops*offerNS+float64(completed)/ops*completeNS,
		"Offer call × offers + completion event × completions (step excluded: in des)")
	led.add("testbed", float64(genTotal)/ops-float64(genSends)/ops*sendNS+launchNS-sendNS,
		"generator spans − sends × (marshal + netsim self) + testbed.launch_ns − its send")
	led.add("sketch", addNS*float64(c.run.RT.Count())/ops, "sketch.add_ns × completed queries")
	if tb.Feedback != nil {
		led.add("feedback", ingestNS*reports/ops, "feedback.ingest_ns × feedback.reports_per_op")
	}
	led.inside("flowtable", (tc.lookupNS*float64(fs.Hits+fs.Misses)+tc.insertNS*float64(fs.Inserts)+
		tc.markClosingNS*float64(lb.Get("closing_observed"))+sweepNS)/ops,
		"lookup × lookups + insert × inserts + mark_closing × closes + sweep walk")
	led.inside("srv6", (new2*float64(lb.Get("steered"))+new3*float64(lb.Get("hunts_started")))/ops,
		"new2 × steered + new3 × hunts")
	led.inside("selection", (pickNS*float64(lb.Get("hunts_started"))+resteerNS*float64(lb.Get("flowlet_resteer")))/ops,
		"pick × hunts + resteer × moves")
	led.inside("metrics", incNS*float64(counterIncs(lb))/ops, "metrics.inc_ns × the LB's own counter calls")
	led.close(m, ref)
	return &led
}

// dispatchLayers fills the per-layer metrics of a dispatch rig. d holds
// the rig's counter deltas over the traced pass; churn says whether the
// loop also advances simulated time (and so sweeps).
func dispatchLayers(m *metricSet, ref, traced *pass, tr *tracer, d rigCounts, churn bool) *ledger {
	ops := float64(traced.ops)
	perOp := func(n uint64) float64 { return float64(n) / ops }
	incNS := commonLayers(m, ref, traced, tr)
	coreTotal, coreCalls, coreSends := tr.layerTotal(layerCore)
	sendsPerOp := perOp(coreSends)
	m.set("core.calls_per_op", perOp(coreCalls))
	m.set("core.slow_path_frac", float64(d.slow)/float64(coreCalls))
	m.set("packet.wire_bytes_per_op", perOp(d.txBytes))
	m.set("flowtable.hit_frac", float64(d.flows.Hits)/float64(d.flows.Hits+d.flows.Misses))
	m.set("flowtable.expiries_per_op", perOp(d.flows.Expiries))
	m.set("flowtable.evictions", float64(d.flows.Evictions))
	m.set("metrics.incs_per_op", perOp(d.lbIncs+d.netIncs))

	marshalNS, _, pktAllocs := codecCosts(tr.packets)
	m.set("packet.marshal_ns", marshalNS)
	m.set("packet.allocs_per_pkt", pktAllocs)
	new2, new3 := srhLayers(m)
	sendNS := hopCost(tr.packets, true)
	netSelf := sendNS - marshalNS
	m.set("netsim.send_deliver_ns", sendNS)
	m.set("netsim.self_ns", netSelf)
	tc := tableLayers(m, tr)
	pickNS := pickCost(false)
	m.set("selection.pick_ns", pickNS)

	m.set("core.self_ns_per_op", float64(coreTotal)/ops-sendsPerOp*sendNS)
	// The spans cover the whole op here, so a row taken from them would
	// explain the op by itself. Every row is instead an isolated unit cost
	// times a traced count (B × A); what the rows leave of the reference
	// pass is the LB's own code between those calls, the loop's packet
	// fill, and caches colder than the isolates'.
	var led ledger
	led.add("packet", sendsPerOp*marshalNS, "packet.marshal_ns × sends")
	led.add("netsim", sendsPerOp*netSelf, "netsim.self_ns (lossy Send − marshal) × sends")
	var sweepNS float64
	if churn {
		stepNS := idleRunForCost()
		m.set("des.step_ns", stepNS)
		led.add("des", stepNS, "Sim.RunFor(1ms) on an empty queue × 1")
		// One connection per simulated millisecond: a sweep every 1000.
		sweepNS = tc.sweepNSPerEntry * tr.flowLen.mean() / 1000
		m.set("flowtable.sweep_share", sweepNS/ref.nsPerOp())
	}
	led.add("flowtable", tc.lookupNS*perOp(d.flows.Hits+d.flows.Misses)+tc.insertNS*perOp(d.flows.Inserts)+
		tc.markClosingNS*perOp(d.closing)+sweepNS,
		"lookup × lookups + insert × inserts + mark_closing × closes + sweep walk")
	led.add("srv6", new2*perOp(d.steered)+new3*perOp(d.hunts), "new2 × steered + new3 × hunts")
	led.add("selection", pickNS*perOp(d.hunts), "pick × hunts")
	led.add("metrics", incNS*perOp(d.lbIncs), "metrics.inc_ns × the LB's own counter calls")
	led.close(m, ref)
	return &led
}

func (s *steeredRunner) layers(m *metricSet, ref, traced *pass, tr *tracer) *ledger {
	return dispatchLayers(m, ref, traced, tr, s.rig.counts().minus(s.rig.mark), false)
}

func (c *churnRunner) layers(m *metricSet, ref, traced *pass, tr *tracer) *ledger {
	return dispatchLayers(m, ref, traced, tr, c.rig.counts().minus(c.rig.mark), true)
}

// layers fills fig2_sweep's per-layer metrics. The sweep is traced at
// cell granularity only (the Progress timestamps the untraced pass
// already takes), so there is no separate reference pass and no ledger.
func (f *fig2Runner) layers(m *metricSet, _, p *pass, tr *tracer) *ledger {
	m.set("trace.spans", float64(tr.spans()))
	m.set("experiments.calibrate_s", f.calWall.Seconds())
	m.set("experiments.calibrate_probes", float64(len(f.cal.Probes)))
	var cellMax, cellSum float64
	for _, cell := range f.res.Cells {
		w := cell.Wall.Seconds()
		cellSum += w
		cellMax = max(cellMax, w)
	}
	m.set("experiments.cell_s_max", cellMax)
	m.set("experiments.overhead_frac", 1-cellSum/f.sweepWall.Seconds())
	m.set("experiments.wall_s", p.wall.Seconds())
	m.set("testbed.build_s", clusterBuildSeconds(f.cluster(0), experiments.RR()))
	m.set("runtime.gc_cpu_frac", p.mem.gcCPU/p.mem.cpu)
	m.set("runtime.gc_cycles_per_mop", float64(p.mem.gcCycles)/(float64(p.ops)/1e6))
	m.set("runtime.op_ns_p90", quantile(p.batchNS, 0.9))
	m.set("sim.refused", float64(f.refused))
	m.set("sim.digest", float64(f.digest()))
	m.set("sim.sr4_vs_rr_x", f.improvement)
	// The headline cell: SR4 at the ρ nearest 0.88.
	for pi, pol := range f.res.Policies {
		if pol.Name != "SR 4" {
			continue
		}
		best := 0
		for ri, rho := range f.rhos {
			if math.Abs(rho-0.88) < math.Abs(f.rhos[best]-0.88) {
				best = ri
			}
		}
		// The sweep keeps mean, median and p95 per point; p99 stays 0 here.
		m.set("sim.mean_rt_ms", f.res.Points[pi][best].Mean.Seconds()*1e3)
	}
	return nil
}
