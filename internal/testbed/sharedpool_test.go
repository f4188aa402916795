package testbed

import (
	"maps"
	"net/netip"
	"testing"
	"time"

	"srlb/internal/ipv6"
	"srlb/internal/netsim"
	"srlb/internal/packet"
	"srlb/internal/tcpseg"
	"srlb/internal/vrouter"
)

// serverVIP is one cell of a response ledger.
type serverVIP struct{ server, vip netip.Addr }

// tapResponses counts, off the wire, the responses each server sends per
// VIP. A flow's server is the first segment of its SYN-ACK's SRH; a
// response is the server's FIN carrying data, sent from the VIP.
func tapResponses(net *netsim.Network) map[serverVIP]uint64 {
	servers := map[packet.FlowKey]netip.Addr{}
	counts := map[serverVIP]uint64{}
	net.AddTap(func(_ time.Duration, _ netip.Addr, p *packet.Packet) {
		if p.IsSYNACK() && p.SRH != nil {
			client, _ := p.SRH.Final()
			servers[packet.FlowKey{Src: p.IP.Src, Dst: client, SrcPort: p.TCP.SrcPort, DstPort: p.TCP.DstPort}] = p.SRH.Path()[0]
		} else if p.TCP.Flags.Has(tcpseg.FlagFIN) && len(p.TCP.Payload) > 0 {
			counts[serverVIP{servers[p.Flow()], p.IP.Src}]++
		}
	})
	return counts
}

// tapCandidates collects, per VIP, every server the LB offers in a hunt
// SYN delivered at or after from: the VIP's selectable pool as the LB's
// scheme sees it.
func tapCandidates(net *netsim.Network, from time.Duration) map[netip.Addr]map[netip.Addr]bool {
	offered := map[netip.Addr]map[netip.Addr]bool{}
	net.AddTap(func(at time.Duration, _ netip.Addr, p *packet.Packet) {
		if at < from || !p.IsSYN() || p.SRH == nil {
			return
		}
		path := p.SRH.Path()
		vip := path[len(path)-1]
		if offered[vip] == nil {
			offered[vip] = map[netip.Addr]bool{}
		}
		for _, s := range path[:len(path)-1] {
			offered[vip][s] = true
		}
	})
	return offered
}

// poolAddrs is the set of pool p's servers at the slots.
func poolAddrs(p int, slots ...int) map[netip.Addr]bool {
	set := map[netip.Addr]bool{}
	for _, i := range slots {
		set[SharedPoolServerAddr(p, i)] = true
	}
	return set
}

// sharedPoolTopology is two services selecting over one pool — the
// contention regime: every worker serves both VIPs.
func sharedPoolTopology(seed uint64, servers int, events ...Event) Topology {
	return Topology{
		Seed:   seed,
		Pools:  []PoolSpec{{Name: "shared", Servers: servers}},
		VIPs:   []VIPSpec{{Name: "web"}, {Name: "batch"}},
		Span:   time.Second,
		Events: events,
	}
}

// Two VIPs over one pool: the LB offers both services the *same* four
// servers, both services complete, and every response is attributable
// to exactly one VIP — the per-server, per-VIP response counts read off
// the wire sum to the responses_tx total, slot by slot.
func TestSharedPoolTwoVIPsOneLedger(t *testing.T) {
	const n = 400
	tb := Build(sharedPoolTopology(43, 4))
	results := collect(tb)
	resp := tapResponses(tb.Net)
	offered := tapCandidates(tb.Net, 0)
	if got := len(tb.Servers); got != 4 {
		t.Fatalf("built %d servers, want 4 — the pool was duplicated per VIP", got)
	}
	for i := 0; i < n; i++ {
		q := Query{ID: uint64(i), Demand: 5 * time.Millisecond}
		if i%2 == 1 {
			q.VIP = tb.VIPAddrOf(1)
		}
		tb.Sim.At(time.Duration(i)*time.Millisecond, func() { tb.Gen.Launch(q) })
	}
	tb.Sim.Run()
	tb.Gen.DrainPending()
	if ok := okCount(*results); ok != n {
		t.Fatalf("only %d/%d completed over the shared pool", ok, n)
	}
	shared := map[netip.Addr]bool{}
	for _, rt := range tb.Routers {
		shared[rt.Addr()] = true
	}
	for v := 0; v < 2; v++ {
		if got := offered[tb.VIPAddrOf(v)]; !maps.Equal(got, shared) {
			t.Fatalf("VIP %d was offered %v, want the shared pool %v", v, got, shared)
		}
	}
	// Attribution: per slot, the per-VIP response counts sum exactly to
	// the router's total — no response double-counted, none unattributed.
	var perVIP [2]uint64
	for i, rt := range tb.Routers {
		a := resp[serverVIP{rt.Addr(), tb.VIPAddrOf(0)}]
		b := resp[serverVIP{rt.Addr(), tb.VIPAddrOf(1)}]
		if total := rt.Counts.Get("responses_tx"); a+b != total {
			t.Fatalf("slot %d: %d+%d VIP responses != %d total", i, a, b, total)
		}
		perVIP[0] += a
		perVIP[1] += b
	}
	if perVIP[0] != n/2 || perVIP[1] != n/2 {
		t.Fatalf("per-VIP responses = %d/%d, want %d each", perVIP[0], perVIP[1], n/2)
	}
	// The LB demultiplexes the same way: one SYN per query per VIP.
	for v := 0; v < 2; v++ {
		if got := tb.LB.VIPSYNs(tb.VIPAddrOf(v)); got != n/2 {
			t.Fatalf("LB counted %d SYNs for VIP %d, want %d", got, v, n/2)
		}
	}
}

// Pool-targeted lifecycle events drive the shared pool once for every
// service: a drain removes the server from both VIPs' candidate sets, an
// add makes the new server selectable by both.
func TestSharedPoolEvents(t *testing.T) {
	const n = 600
	tb := Build(sharedPoolTopology(47, 3,
		AddServer(0.1, 0),
		DrainServer(0.3, 0, 0),
	))
	results := collect(tb)
	resp := tapResponses(tb.Net)
	offered := tapCandidates(tb.Net, 300*time.Millisecond)
	for i := 0; i < n; i++ {
		q := Query{ID: uint64(i), Demand: 10 * time.Millisecond}
		if i%2 == 1 {
			q.VIP = tb.VIPAddrOf(1)
		}
		tb.Sim.At(time.Duration(i)*time.Millisecond, func() { tb.Gen.Launch(q) })
	}
	tb.Sim.Run()
	tb.Gen.DrainPending()
	if ok := okCount(*results); ok != n {
		t.Fatalf("only %d/%d completed across shared-pool churn", ok, n)
	}
	// After the drain both services are offered slots 1–3: 3 + 1 added
	// - 1 drained.
	want := map[netip.Addr]bool{}
	for _, rt := range tb.Routers[1:] {
		want[rt.Addr()] = true
	}
	for v := 0; v < 2; v++ {
		if got := offered[tb.VIPAddrOf(v)]; !maps.Equal(got, want) {
			t.Fatalf("VIP %d candidates after the drain = %v, want %v", v, got, want)
		}
	}
	added := tb.Routers[3].Addr()
	a, b := resp[serverVIP{added, tb.VIPAddrOf(0)}], resp[serverVIP{added, tb.VIPAddrOf(1)}]
	if a == 0 || b == 0 {
		t.Fatalf("added server responses per VIP = %d/%d — not selectable by both services", a, b)
	}
}

// A shared server dispatches each request to the demand model of the VIP
// it arrived for: per-VIP demand functions see only their own flows.
func TestSharedPoolPerVIPDemand(t *testing.T) {
	const n = 200
	var webCalls, batchCalls int
	top := sharedPoolTopology(53, 3)
	top.VIPs[0].Demand = func(int) vrouter.DemandFn {
		return func(flow packet.FlowKey, payload []byte) time.Duration {
			webCalls++
			return DefaultDemand(flow, payload)
		}
	}
	top.VIPs[1].Demand = func(int) vrouter.DemandFn {
		return func(packet.FlowKey, []byte) time.Duration {
			batchCalls++
			return 25 * time.Millisecond // fixed, payload ignored
		}
	}
	tb := Build(top)
	results := collect(tb)
	webAddr, batchAddr := tb.VIPAddrOf(0), tb.VIPAddrOf(1)
	for i := 0; i < n; i++ {
		q := Query{ID: uint64(i), Demand: 2 * time.Millisecond}
		if i%2 == 1 {
			q.VIP = batchAddr
		}
		tb.Sim.At(time.Duration(i)*2*time.Millisecond, func() { tb.Gen.Launch(q) })
	}
	tb.Sim.Run()
	tb.Gen.DrainPending()
	if ok := okCount(*results); ok != n {
		t.Fatalf("only %d/%d completed", ok, n)
	}
	if webCalls != n/2 || batchCalls != n/2 {
		t.Fatalf("demand calls web=%d batch=%d, want %d each — per-VIP dispatch leaked", webCalls, batchCalls, n/2)
	}
	// The batch demand model ignores the encoded 2 ms and charges 25 ms:
	// batch responses must be visibly slower than web's.
	var webRT, batchRT time.Duration
	var webN, batchN int
	for _, res := range *results {
		if !res.OK {
			continue
		}
		if res.VIP == webAddr {
			webRT += res.RT
			webN++
		} else {
			batchRT += res.RT
			batchN++
		}
	}
	if webN == 0 || batchN == 0 {
		t.Fatal("one service completed nothing — test vacuous")
	}
	if batchRT/time.Duration(batchN) <= webRT/time.Duration(webN) {
		t.Fatalf("batch mean RT %v not above web %v — per-VIP cost model not applied",
			batchRT/time.Duration(batchN), webRT/time.Duration(webN))
	}
}

// Every server of a shared pool prices each VIP's requests with the
// demand function that VIP built for that server: each call of VIP v's
// Demand(i) is for a flow to v, and server i calls it once per request
// of v it served.
func TestSharedPoolPricesEachVIPWithItsOwnDemand(t *testing.T) {
	const servers, n = 3, 300
	type call struct{ server, vip int }
	calls := map[call]uint64{}
	top := sharedPoolTopology(59, servers)
	for v := range top.VIPs {
		top.VIPs[v].Demand = func(i int) vrouter.DemandFn {
			return func(flow packet.FlowKey, payload []byte) time.Duration {
				if flow.Dst != VIPAddr(v) {
					t.Errorf("VIP %d's demand of server %d priced a flow to %v", v, i, flow.Dst)
				}
				calls[call{i, v}]++
				return DefaultDemand(flow, payload)
			}
		}
	}
	tb := Build(top)
	responses := tapResponses(tb.Net)
	for i := 0; i < n; i++ {
		q := Query{ID: uint64(i), VIP: VIPAddr(i % 2), Demand: 2 * time.Millisecond}
		tb.Sim.At(time.Duration(i)*time.Millisecond, func() { tb.Gen.Launch(q) })
	}
	tb.Sim.Run()
	tb.Gen.DrainPending()
	for i := 0; i < servers; i++ {
		for v := 0; v < 2; v++ {
			got, want := calls[call{i, v}], responses[serverVIP{SharedPoolServerAddr(0, i), VIPAddr(v)}]
			if got == 0 || got != want {
				t.Errorf("server %d, VIP %d: %d demand calls for %d responses", i, v, got, want)
			}
		}
	}
}

// A steered packet that reaches a server for a VIP of another pool (a
// stale binding at the balancer) is counted not_local and dropped: the
// server hosts only its own pool's VIPs.
func TestSteeredToAnotherPoolsVIPIsNotLocal(t *testing.T) {
	tb := Build(Topology{
		Seed:  61,
		Pools: []PoolSpec{{Servers: 2}, {Servers: 2}},
		VIPs:  []VIPSpec{{Pool: 0}, {Pool: 1}},
	})
	flow := packet.FlowKey{Src: ClientAddr(0), Dst: VIPAddr(1), SrcPort: 4000, DstPort: 80}
	tb.LB.SeedFlow(flow, SharedPoolServerAddr(0, 0))
	tb.Net.Send(&packet.Packet{
		IP:  ipv6.Header{Src: flow.Src, Dst: flow.Dst},
		TCP: tcpseg.Segment{SrcPort: flow.SrcPort, DstPort: flow.DstPort, Seq: 1, Ack: 1, Flags: tcpseg.FlagACK},
	})
	tb.Sim.Run()
	if got := tb.LB.Counts.Get("steered"); got != 1 {
		t.Fatalf("LB steered %d packets, want 1", got)
	}
	for i, rt := range tb.Routers {
		want := uint64(0)
		if rt.Addr() == SharedPoolServerAddr(0, 0) {
			want = 1
		}
		if got := rt.Counts.Get("not_local"); got != want {
			t.Errorf("router %d (%v): not_local = %d, want %d", i, rt.Addr(), got, want)
		}
		if got := rt.Counts.Get("no_conn"); got != 0 {
			t.Errorf("router %d: no_conn = %d, want 0", i, got)
		}
	}
}
