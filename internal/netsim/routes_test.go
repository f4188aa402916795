package netsim

import (
	"net/netip"
	"slices"
	"testing"

	"srlb/internal/des"
	"srlb/internal/packet"
)

// counter is a comparable Node (anycast members are matched by
// interface equality, which a NodeFunc does not support).
type counter struct{ n int }

func (c *counter) Handle(*packet.Packet) { c.n++ }

// deliverTo runs the delivery half of a hop for a packet addressed to
// dst, skipping Send's wire checks: routing is by netip.Addr equality,
// whatever address the codec would accept.
func deliverTo(n *Network, dst netip.Addr, srcPort uint16) {
	s := n.get()
	s.pkt = *mkPkt("2001:db8::a", "2001:db8::b")
	s.pkt.IP.Dst, s.pkt.TCP.SrcPort = dst, srcPort
	n.deliver(s)
}

// IPv4, IPv4-mapped, zoned and zero destinations each route only to what
// was attached under that exact address: an IPv4 address and its mapped
// twin, and a zoned address and its zoneless form, share As16() bytes
// but are distinct destinations, and the zero Addr is not "::".
func TestNonV6DestinationsKeptApart(t *testing.T) {
	n := New(des.New(), Config{})
	dsts := []netip.Addr{
		netip.MustParseAddr("192.0.2.1"),
		netip.MustParseAddr("::ffff:192.0.2.1"),
		netip.MustParseAddr("fe80::1%eth0"),
		netip.MustParseAddr("fe80::1"),
		netip.IPv6Unspecified(),
	}
	nodes := make([]*counter, len(dsts))
	for i := range nodes {
		nodes[i] = &counter{}
	}
	round := func() []int {
		for _, d := range dsts {
			deliverTo(n, d, 1000)
		}
		got := make([]int, len(nodes))
		for i, c := range nodes {
			got[i] = c.n
		}
		return got
	}
	for i := 1; i < len(dsts); i += 2 {
		n.Attach(nodes[i], dsts[i])
	}
	if got, want := round(), []int{0, 1, 0, 1, 0}; !slices.Equal(got, want) {
		t.Fatalf("odd half attached: deliveries %v, want %v", got, want)
	}
	if got := n.Counts.Get("unroutable"); got != 3 {
		t.Fatalf("unroutable = %d, want 3 (each unattached twin)", got)
	}
	for i := 0; i < len(dsts); i += 2 {
		n.Attach(nodes[i], dsts[i])
	}
	if got, want := round(), []int{1, 2, 1, 2, 1}; !slices.Equal(got, want) {
		t.Fatalf("all attached: deliveries %v, want %v", got, want)
	}
	deliverTo(n, netip.Addr{}, 1000)
	if got := n.Counts.Get("unroutable"); got != 4 {
		t.Fatalf("unroutable = %d after the zero Addr, want 4", got)
	}
	if got, want := round(), []int{2, 3, 2, 3, 2}; !slices.Equal(got, want) {
		t.Fatalf("after the zero Addr: deliveries %v, want %v", got, want)
	}
}

// A detached address is unroutable until something attaches it again,
// and only its owner can detach it.
func TestDetachThenReattachRoutes(t *testing.T) {
	n := New(des.New(), Config{})
	first, second := &counter{}, &counter{}
	n.Attach(first, addrB, addrC)
	if n.Detach(second, addrB) {
		t.Fatal("a node detached an address it does not own")
	}
	deliverTo(n, addrB, 1000)
	if !n.Detach(first, addrB) || n.Detach(first, addrB) {
		t.Fatal("Detach must report true once, then false")
	}
	deliverTo(n, addrB, 1000)
	deliverTo(n, addrC, 1000)
	if first.n != 2 || n.Counts.Get("unroutable") != 1 {
		t.Fatalf("after detach: first got %d, unroutable %d; want 2 and 1", first.n, n.Counts.Get("unroutable"))
	}
	n.Attach(second, addrB)
	deliverTo(n, addrB, 1000)
	if second.n != 1 || first.n != 2 {
		t.Fatalf("after re-attach: second got %d, first %d; want 1 and 2", second.n, first.n)
	}
}

// An anycast group spreads flows over its members by the 5-tuple hash in
// join order, keeps each flow on one member, rehashes over survivors
// when a member leaves, and stays an anycast group once emptied: it is
// unroutable, refuses a unicast Attach, and routes again when a member
// rejoins.
func TestAnycastGroupLifecycle(t *testing.T) {
	n := New(des.New(), Config{})
	a, b := &counter{}, &counter{}
	n.AttachAnycast(a, addrB)
	n.AttachAnycast(b, addrB)
	mustPanic(t, "unicast Attach onto an anycast group", func() { n.Attach(&counter{}, addrB) })
	n.Attach(&counter{}, addrC)
	mustPanic(t, "AttachAnycast onto a unicast address", func() { n.AttachAnycast(a, addrC) })

	const flows = 64
	for port := uint16(1000); port < 1000+flows; port++ {
		p := mkPkt("2001:db8::a", "2001:db8::b")
		p.TCP.SrcPort = port
		want := []*counter{a, b}[ecmpHash(p)%2]
		before := want.n
		deliverTo(n, addrB, port)
		deliverTo(n, addrB, port)
		if want.n != before+2 {
			t.Fatalf("port %d: flow not kept on member %d of the group", port, ecmpHash(p)%2)
		}
	}
	if a.n == 0 || b.n == 0 || a.n+b.n != 2*flows {
		t.Fatalf("members got %d and %d of %d", a.n, b.n, 2*flows)
	}

	if !n.DetachAnycast(a, addrB) || n.DetachAnycast(a, addrB) {
		t.Fatal("DetachAnycast must report true once, then false")
	}
	deliverTo(n, addrB, 1)
	deliverTo(n, addrB, 2)
	if b.n != 2*flows-a.n+2 {
		t.Fatal("the surviving member did not take every flow")
	}
	n.DetachAnycast(b, addrB)
	deliverTo(n, addrB, 1)
	if got := n.Counts.Get("unroutable"); got != 1 {
		t.Fatalf("emptied group: unroutable = %d, want 1", got)
	}
	mustPanic(t, "unicast Attach onto an emptied anycast group", func() { n.Attach(&counter{}, addrB) })
	n.AttachAnycast(a, addrB)
	before := a.n
	deliverTo(n, addrB, 1)
	if a.n != before+1 {
		t.Fatal("a rejoined member does not route")
	}
	if n.DetachAnycast(a, addrA) {
		t.Fatal("DetachAnycast reported a member of a group that does not exist")
	}
}

func mustPanic(t *testing.T, what string, f func()) {
	t.Helper()
	defer func() {
		if recover() == nil {
			t.Fatalf("%s: no panic", what)
		}
	}()
	f()
}

// Detaching an address the network never held reports false and leaves
// the routing tables as they were.
func TestDetachUnknownAddressAddsNothing(t *testing.T) {
	n := New(des.New(), Config{})
	c := &counter{}
	n.Attach(c, netip.MustParseAddr("2001:db8::1"))
	stranger := netip.MustParseAddr("2001:db8::2")
	if n.Detach(c, stranger) || n.DetachAnycast(c, stranger) {
		t.Fatal("detached an address never attached")
	}
	if n.addrs.Len() != 1 || len(n.routes) != 2 || n.routes[1] != c {
		t.Fatalf("tables hold %d addresses and %d routes; want 1 and 1 (after the miss slot), to the node", n.addrs.Len(), len(n.routes))
	}
}

// FuzzRoutesModel drives a Network and a map-based reference with the
// same Attach, Detach, AttachAnycast, DetachAnycast and deliveries over a
// few nodes and addresses (IPv6, IPv4, its mapped twin, a zoned one and
// the zero Addr): each call's result or panic, and which node each
// delivery reaches or whether it is unroutable, agree.
func FuzzRoutesModel(f *testing.F) {
	f.Add([]byte{0, 0, 0, 4, 0, 0, 1, 1, 0, 4, 0, 0, 2, 2, 1, 4, 1, 0})
	f.Add([]byte{2, 0, 3, 2, 1, 3, 4, 3, 7, 4, 3, 9, 0, 2, 3, 3, 0, 3, 4, 3, 7, 3, 1, 3, 0, 2, 3})
	f.Add([]byte{0, 1, 4, 0, 2, 4, 1, 2, 4, 2, 2, 4, 1, 1, 4, 0, 3, 4, 4, 4, 5})
	f.Fuzz(func(t *testing.T, data []byte) {
		addrs := []netip.Addr{
			addrA, addrB,
			netip.MustParseAddr("192.0.2.1"),
			netip.MustParseAddr("::ffff:192.0.2.1"),
			netip.MustParseAddr("2001:db8::a%eth0"),
			{},
		}
		nodes := []*counter{{}, {}, {}}
		delivered := func() (sum int) {
			for _, c := range nodes {
				sum += c.n
			}
			return sum
		}
		n := New(des.New(), Config{})
		unicast := map[netip.Addr]*counter{}
		anycast := map[netip.Addr][]*counter{} // an emptied group stays a group
		unroutable := uint64(0)
		for ; len(data) >= 3; data = data[3:] {
			op, node, a := data[0]%5, nodes[int(data[1])%len(nodes)], addrs[int(data[2])%len(addrs)]
			_, uni := unicast[a]
			group, grouped := anycast[a]
			switch op {
			case 0:
				if uni || grouped {
					mustPanic(t, "Attach onto a bound address", func() { n.Attach(node, a) })
					continue
				}
				n.Attach(node, a)
				unicast[a] = node
			case 1:
				want := uni && unicast[a] == node
				if want {
					delete(unicast, a)
				}
				if got := n.Detach(node, a); got != want {
					t.Fatalf("Detach(%v) = %v, want %v", a, got, want)
				}
			case 2:
				if uni {
					mustPanic(t, "AttachAnycast onto a unicast address", func() { n.AttachAnycast(node, a) })
					continue
				}
				n.AttachAnycast(node, a)
				anycast[a] = append(group, node)
			case 3:
				i := slices.Index(group, node)
				if i >= 0 {
					anycast[a] = slices.Delete(slices.Clone(group), i, i+1)
				}
				if got := n.DetachAnycast(node, a); got != (i >= 0) {
					t.Fatalf("DetachAnycast(%v) = %v, want %v", a, got, i >= 0)
				}
			case 4:
				port := uint16(data[1])
				p := mkPkt("2001:db8::a", "2001:db8::b")
				p.IP.Dst, p.TCP.SrcPort = a, port
				want := unicast[a]
				if len(group) > 0 {
					want = group[ecmpHash(p)%uint64(len(group))]
				}
				sum, wantN := delivered(), 0
				if want != nil {
					wantN = want.n + 1
				} else {
					unroutable++
				}
				deliverTo(n, a, port)
				if (want != nil && want.n != wantN) || delivered() != sum+min(wantN, 1) {
					t.Fatalf("delivery to %v port %d: not (only) to %p", a, port, want)
				}
				if got := n.Counts.Get("unroutable"); got != unroutable {
					t.Fatalf("unroutable = %d, want %d", got, unroutable)
				}
			}
		}
	})
}
