package livenet

import (
	"fmt"
	"net/netip"
	"slices"
	"strings"
	"sync"
	"testing"
	"time"

	"srlb/internal/agent"
	"srlb/internal/core"
	"srlb/internal/flowtable"
	"srlb/internal/ipv6"
	"srlb/internal/packet"
	"srlb/internal/rng"
	"srlb/internal/selection"
	"srlb/internal/srv6"
	"srlb/internal/tcpseg"
)

var (
	liveVIP = ipv6.MustAddr("2001:db8:f00d::1")
	liveLB  = ipv6.MustAddr("2001:db8:1b::1")
	liveCli = ipv6.MustAddr("2001:db8:c::1")
)

func liveServerAddrs(n int) []netip.Addr {
	out := make([]netip.Addr, n)
	for i := range out {
		out[i] = ipv6.MustAddr(fmt.Sprintf("2001:db8:5::%x", i+1))
	}
	return out
}

func TestNetworkDelivery(t *testing.T) {
	net := NewNetwork()
	defer net.Close()
	got := make(chan *packet.Packet, 1)
	addr := ipv6.MustAddr("2001:db8::1")
	net.Attach(func(p *packet.Packet) { got <- p }, addr)
	p := &packet.Packet{
		IP:  ipv6.Header{Src: liveCli, Dst: addr},
		TCP: tcpseg.Segment{SrcPort: 1, DstPort: 2, Flags: tcpseg.FlagSYN, Payload: []byte("hi")},
	}
	if err := net.Send(p); err != nil {
		t.Fatal(err)
	}
	select {
	case q := <-got:
		if string(q.TCP.Payload) != "hi" {
			t.Fatalf("payload %q", q.TCP.Payload)
		}
	case <-time.After(time.Second):
		t.Fatal("packet not delivered")
	}
}

func TestNetworkUnroutableIsSilent(t *testing.T) {
	net := NewNetwork()
	defer net.Close()
	p := &packet.Packet{
		IP:  ipv6.Header{Src: liveCli, Dst: liveVIP},
		TCP: tcpseg.Segment{Flags: tcpseg.FlagSYN},
	}
	if err := net.Send(p); err != nil {
		t.Fatalf("unroutable send should not error: %v", err)
	}
}

func TestNetworkClose(t *testing.T) {
	net := NewNetwork()
	addr := ipv6.MustAddr("2001:db8::2")
	net.Attach(func(*packet.Packet) {}, addr)
	net.Close()
	net.Close() // idempotent
	p := &packet.Packet{
		IP:  ipv6.Header{Src: liveCli, Dst: addr},
		TCP: tcpseg.Segment{Flags: tcpseg.FlagSYN},
	}
	if err := net.Send(p); err != ErrClosed {
		t.Fatalf("send after close = %v, want ErrClosed", err)
	}
}

func TestDuplicateAttachPanics(t *testing.T) {
	net := NewNetwork()
	defer net.Close()
	addr := ipv6.MustAddr("2001:db8::3")
	net.Attach(func(*packet.Packet) {}, addr)
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	net.Attach(func(*packet.Packet) {}, addr)
}

// TestNewServerRejectsUnusableAddresses: a server that cannot write its
// SYN-ACK segment list must not come up — it would take a worker per SYN,
// answer nothing, and RST every connection once the pool is gone.
func TestNewServerRejectsUnusableAddresses(t *testing.T) {
	addr := liveServerAddrs(1)[0]
	for name, cfg := range map[string]ServerConfig{
		"LB":   {Addr: addr, VIP: liveVIP},
		"Addr": {Addr: netip.MustParseAddr("192.0.2.1"), VIP: liveVIP, LB: liveLB},
	} {
		func() {
			net := NewNetwork()
			defer net.Close()
			defer func() {
				if r := recover(); r == nil || !strings.Contains(fmt.Sprint(r), "bad "+name) {
					t.Fatalf("NewServer with an unusable %s: recovered %v", name, r)
				}
			}()
			NewServer(net, cfg)
		}()
	}
}

// TestEndToEndHunting runs the full live protocol: N servers, one LB, one
// client, a few hundred queries — every query must complete, and flow
// learning must route follow-ups correctly.
func TestEndToEndHunting(t *testing.T) {
	net := NewNetwork()
	defer net.Close()
	addrs := liveServerAddrs(4)
	servers := make([]*Server, len(addrs))
	for i, a := range addrs {
		servers[i] = NewServer(net, ServerConfig{
			Addr: a, VIP: liveVIP, LB: liveLB,
			Workers: 16,
			Policy:  agent.NewStatic(8),
			Service: func([]byte) time.Duration { return time.Millisecond },
		})
	}
	NewLoadBalancer(net, liveLB, liveVIP, selection.NewRandom(addrs, 2, rng.New(1)))
	client := NewClient(net, liveCli, liveVIP)

	const n = 400
	for i := 0; i < n; i++ {
		client.Launch([]byte(fmt.Sprintf("GET /%d", i)))
	}
	done, refused := 0, 0
	deadline := time.After(10 * time.Second)
	for done+refused < n {
		select {
		case o := <-client.Results():
			if o.Refused {
				refused++
			} else {
				done++
			}
		case <-deadline:
			t.Fatalf("timeout: %d/%d finished", done+refused, n)
		}
	}
	if done == 0 {
		t.Fatal("nothing completed")
	}
	var accepted uint64
	for _, s := range servers {
		accepted += s.Accepted()
	}
	if accepted != uint64(done) {
		t.Fatalf("servers accepted %d, client completed %d", accepted, done)
	}
}

// TestPolicySkew verifies hunting steers load away from busy servers in
// the live runtime: a server with zero capacity must accept ~nothing.
func TestPolicySkew(t *testing.T) {
	net := NewNetwork()
	defer net.Close()
	addrs := liveServerAddrs(2)
	// Server 0 refuses everything (Never); server 1 accepts.
	s0 := NewServer(net, ServerConfig{
		Addr: addrs[0], VIP: liveVIP, LB: liveLB,
		Workers: 8, Policy: agent.Never{},
		Service: func([]byte) time.Duration { return time.Millisecond },
	})
	s1 := NewServer(net, ServerConfig{
		Addr: addrs[1], VIP: liveVIP, LB: liveLB,
		Workers: 64, Policy: agent.Never{},
		Service: func([]byte) time.Duration { return time.Millisecond },
	})
	NewLoadBalancer(net, liveLB, liveVIP, selection.NewRandom(addrs, 2, rng.New(2)))
	client := NewClient(net, liveCli, liveVIP)

	const n = 200
	for i := 0; i < n; i++ {
		client.Launch([]byte("x"))
		time.Sleep(500 * time.Microsecond)
	}
	finished := 0
	deadline := time.After(10 * time.Second)
	for finished < n {
		select {
		case <-client.Results():
			finished++
		case <-deadline:
			t.Fatalf("timeout: %d/%d", finished, n)
		}
	}
	// With Never policies, the SECOND candidate always serves; both
	// servers appear in second position about half the time each, so both
	// accept, but that exercises the forced-accept leg under concurrency.
	if s0.Accepted()+s1.Accepted() != n {
		t.Fatalf("accepted %d+%d != %d", s0.Accepted(), s1.Accepted(), n)
	}
}

func TestLoadBalancerFlowLearning(t *testing.T) {
	net := NewNetwork()
	defer net.Close()
	addrs := liveServerAddrs(2)
	for _, a := range addrs {
		NewServer(net, ServerConfig{
			Addr: a, VIP: liveVIP, LB: liveLB,
			Workers: 8, Policy: agent.Always{},
			Service: func([]byte) time.Duration { return 50 * time.Millisecond },
		})
	}
	lb := NewLoadBalancer(net, liveLB, liveVIP, selection.NewRandom(addrs, 2, rng.New(3)))
	client := NewClient(net, liveCli, liveVIP)
	client.Launch([]byte("q"))

	// The flow should appear in the LB table once the SYN-ACK relays.
	ok := false
	for i := 0; i < 100; i++ {
		if lb.FlowCount() == 1 {
			ok = true
			break
		}
		time.Sleep(5 * time.Millisecond)
	}
	if !ok {
		t.Fatal("flow never learned")
	}
	select {
	case <-client.Results():
	case <-time.After(5 * time.Second):
		t.Fatal("query never finished")
	}
}

func TestConcurrentClients(t *testing.T) {
	net := NewNetwork()
	defer net.Close()
	addrs := liveServerAddrs(3)
	for _, a := range addrs {
		NewServer(net, ServerConfig{
			Addr: a, VIP: liveVIP, LB: liveLB,
			Workers: 32, Policy: agent.NewStatic(16),
			Service: func([]byte) time.Duration { return time.Millisecond },
		})
	}
	NewLoadBalancer(net, liveLB, liveVIP, selection.NewRandom(addrs, 2, rng.New(4)))

	const clients = 4
	const perClient = 100
	var wg sync.WaitGroup
	for c := 0; c < clients; c++ {
		cli := NewClient(net, ipv6.MustAddr(fmt.Sprintf("2001:db8:c::%x", c+1)), liveVIP)
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < perClient; i++ {
				cli.Launch([]byte("q"))
			}
			got := 0
			deadline := time.After(10 * time.Second)
			for got < perClient {
				select {
				case <-cli.Results():
					got++
				case <-deadline:
					t.Errorf("client timed out at %d/%d", got, perClient)
					return
				}
			}
		}()
	}
	wg.Wait()
}

func TestServerOverflowRSTs(t *testing.T) {
	net := NewNetwork()
	defer net.Close()
	addrs := liveServerAddrs(1)
	NewServer(net, ServerConfig{
		Addr: addrs[0], VIP: liveVIP, LB: liveLB,
		Workers: 1, Policy: agent.Always{},
		Service: func([]byte) time.Duration { return 200 * time.Millisecond },
	})
	NewLoadBalancer(net, liveLB, liveVIP, selection.NewRandom(addrs, 1, rng.New(5)))
	client := NewClient(net, liveCli, liveVIP)
	for i := 0; i < 5; i++ {
		client.Launch([]byte("q"))
	}
	var ok, refused int
	deadline := time.After(5 * time.Second)
	for ok+refused < 5 {
		select {
		case o := <-client.Results():
			if o.Refused {
				refused++
			} else {
				ok++
			}
		case <-deadline:
			t.Fatalf("timeout: ok=%d refused=%d", ok, refused)
		}
	}
	if refused == 0 {
		t.Fatal("single-worker server never refused under burst")
	}
	if ok == 0 {
		t.Fatal("nothing served")
	}
}

func awaitResult(t *testing.T, c *Client) {
	t.Helper()
	select {
	case <-c.Results():
	case <-time.After(5 * time.Second):
		t.Fatal("query never finished")
	}
}

// A retransmitted SYN of a bound flow must reach the server that already
// accepted it, never a fresh hunt: with two always-accepting servers a
// re-hunt lands on the other one half the time and the connection is
// accepted twice.
func TestSYNRetransmitKeepsBinding(t *testing.T) {
	net := NewNetwork()
	defer net.Close()
	addrs := liveServerAddrs(2)
	servers := make([]*Server, len(addrs))
	for i, a := range addrs {
		servers[i] = NewServer(net, ServerConfig{
			Addr: a, VIP: liveVIP, LB: liveLB,
			Workers: 8, Policy: agent.Always{},
			// Long enough that every retransmit arrives mid-service, while
			// the accepting server still knows the connection.
			Service: func([]byte) time.Duration { return 300 * time.Millisecond },
		})
	}
	lb := NewLoadBalancer(net, liveLB, liveVIP, selection.NewRandom(addrs, 2, rng.New(6)))
	client := NewClient(net, liveCli, liveVIP)
	client.Launch([]byte("q"))
	for i := 0; lb.FlowCount() != 1; i++ {
		if i == 400 {
			t.Fatal("flow never learned")
		}
		time.Sleep(5 * time.Millisecond)
	}
	for i := 0; i < 20; i++ {
		// The client's first connection leaves from source port 1024.
		net.Send(&packet.Packet{
			IP:  ipv6.Header{Src: liveCli, Dst: liveVIP},
			TCP: tcpseg.Segment{SrcPort: 1024, DstPort: 80, Flags: tcpseg.FlagSYN, Payload: []byte("q")},
		})
	}
	// The response follows the service time, long after the retransmits
	// drained through the LB and server queues.
	awaitResult(t, client)
	if got := servers[0].Accepted() + servers[1].Accepted(); got != 1 {
		t.Fatalf("servers accepted the connection %d times, want 1", got)
	}
}

// Idle flow state is collected off the wall clock: a query arriving
// after an earlier flow's TTL, and after the dispatcher's 1 s sweep
// interval, sweeps that flow out on its way in. The test moves the LB's
// clock origin back past both instead of sleeping through them.
func TestIdleFlowsSweptOnWallClock(t *testing.T) {
	net := NewNetwork()
	defer net.Close()
	addrs := liveServerAddrs(2)
	for _, a := range addrs {
		NewServer(net, ServerConfig{
			Addr: a, VIP: liveVIP, LB: liveLB,
			Workers: 8, Policy: agent.Always{},
			// The response trails the SYN-ACK by the service time, so the
			// LB has learned the flow by the time the client sees a result.
			Service: func([]byte) time.Duration { return 30 * time.Millisecond },
		})
	}
	lb := newLoadBalancer(net, core.Config{
		Addr:    liveLB,
		VIPList: []core.VIPConfig{{Addr: liveVIP, Scheme: selection.NewRandom(addrs, 2, rng.New(7))}},
	})
	client := NewClient(net, liveCli, liveVIP)
	client.Launch([]byte("q"))
	awaitResult(t, client)
	if got := lb.FlowCount(); got != 1 {
		t.Fatalf("flow count = %d after the first query, want 1", got)
	}
	lb.mu.Lock()
	lb.start = lb.start.Add(-flowtable.IdleTTL - 2*time.Second)
	lb.mu.Unlock()
	client.Launch([]byte("q"))
	awaitResult(t, client)
	if got := lb.FlowCount(); got != 1 {
		t.Fatalf("flow count = %d after the second query, want 1 (the first flow idled out)", got)
	}
}

// TestConcurrentSYNsAcrossVIPs: the network runs one goroutine per LB
// address, so SYNs for two VIPs and the SYN-ACKs coming back are
// dispatched concurrently, and every forwarded SYN carries the
// dispatcher's one hunt header. Each SYN must still reach a server with
// its own VIP's candidates — the pools are disjoint and of different
// sizes, so a header serialised after another goroutine rewrote it shows
// (and the race detector sees the unsynchronised read).
func TestConcurrentSYNsAcrossVIPs(t *testing.T) {
	const perVIP = 300
	net := NewNetwork()
	defer net.Close()
	servers := liveServerAddrs(5)
	vips := []netip.Addr{liveVIP, ipv6.MustAddr("2001:db8:f00d::2")}
	pools := [][]netip.Addr{servers[:2], servers[2:]}
	lb := newLoadBalancer(net, core.Config{
		Addr: liveLB,
		VIPList: []core.VIPConfig{
			{Addr: vips[0], Scheme: selection.NewRoundRobin(pools[0], 2)},
			{Addr: vips[1], Scheme: selection.NewRandom(pools[1], 3, rng.New(4))},
		},
	})

	// Each server checks the hunt it was offered and accepts it with a
	// SYN-ACK through the LB. The SYN's payload names its VIP.
	for _, self := range servers {
		net.Attach(func(p *packet.Packet) {
			v := int(p.TCP.Payload[0])
			path := p.SRH.Path()
			ok := len(path) == len(pools[v])+1 && path[len(path)-1] == vips[v] && p.IP.Dst == self && path[0] == self
			for _, c := range path[:len(path)-1] {
				ok = ok && slices.Contains(pools[v], c)
			}
			if !ok {
				t.Errorf("SYN for VIP %d reached %v with path %v", v, self, path)
			}
			flow := p.Flow()
			net.Send(&packet.Packet{
				IP:  ipv6.Header{Src: vips[v], Dst: liveLB},
				SRH: &srv6.SRH{NextHeader: ipv6.ProtoTCP, SegmentsLeft: 1, Segments: []netip.Addr{flow.Src, liveLB, self}},
				TCP: tcpseg.Segment{SrcPort: 80, DstPort: flow.SrcPort, Seq: 1, Ack: 1, Flags: tcpseg.FlagSYN | tcpseg.FlagACK},
			})
		}, self)
	}
	var answered sync.WaitGroup
	answered.Add(2 * perVIP)
	net.Attach(func(p *packet.Packet) {
		if p.IsSYNACK() && p.SRH == nil {
			answered.Done()
		}
	}, liveCli)

	for v := range vips {
		go func() {
			for i := 0; i < perVIP; i++ {
				net.Send(&packet.Packet{
					IP:  ipv6.Header{Src: liveCli, Dst: vips[v]},
					TCP: tcpseg.Segment{SrcPort: uint16(1024 + i), DstPort: 80, Flags: tcpseg.FlagSYN, Payload: []byte{byte(v)}},
				})
			}
		}()
	}
	done := make(chan struct{})
	go func() { answered.Wait(); close(done) }()
	select {
	case <-done:
	case <-time.After(10 * time.Second):
		t.Fatal("not every SYN was answered")
	}
	if got := lb.FlowCount(); got != 2*perVIP {
		t.Fatalf("%d flows learned, want %d", got, 2*perVIP)
	}
}
