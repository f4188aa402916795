package netsim

import (
	"net/netip"
	"reflect"
	"slices"
	"testing"
	"time"

	"srlb/internal/des"
	"srlb/internal/ipv6"
	"srlb/internal/packet"
	"srlb/internal/srv6"
	"srlb/internal/tcpseg"
)

var (
	addrA = ipv6.MustAddr("2001:db8::a")
	addrB = ipv6.MustAddr("2001:db8::b")
	addrC = ipv6.MustAddr("2001:db8::c")
)

func mkPkt(src, dst string) *packet.Packet {
	return &packet.Packet{
		IP:  ipv6.Header{Src: ipv6.MustAddr(src), Dst: ipv6.MustAddr(dst)},
		TCP: tcpseg.Segment{SrcPort: 1000, DstPort: 80, Flags: tcpseg.FlagSYN},
	}
}

func TestDeliveryWithLatency(t *testing.T) {
	sim := des.New()
	net := New(sim, Config{Latency: time.Millisecond, VerifyChecksums: true})
	var gotAt time.Duration
	var got *packet.Packet
	net.Attach(NodeFunc(func(p *packet.Packet) {
		gotAt = sim.Now()
		got = p.Clone()
	}), addrB)
	net.Send(mkPkt("2001:db8::a", "2001:db8::b"))
	sim.Run()
	if got == nil {
		t.Fatal("packet not delivered")
	}
	if gotAt != time.Millisecond {
		t.Fatalf("delivered at %v, want 1ms", gotAt)
	}
	if got.IP.Src != addrA {
		t.Fatalf("src = %v", got.IP.Src)
	}
	if net.Counts.Get("tx") != 1 || net.Counts.Get("rx") != 1 {
		t.Fatal("counters wrong")
	}
}

func TestDefaultLatency(t *testing.T) {
	sim := des.New()
	net := New(sim, Config{})
	var at time.Duration
	net.Attach(NodeFunc(func(*packet.Packet) { at = sim.Now() }), addrB)
	net.Send(mkPkt("2001:db8::a", "2001:db8::b"))
	sim.Run()
	if at != DefaultLatency {
		t.Fatalf("at = %v, want %v", at, DefaultLatency)
	}
}

func TestUnroutableCounted(t *testing.T) {
	sim := des.New()
	net := New(sim, Config{})
	net.Send(mkPkt("2001:db8::a", "2001:db8::b"))
	sim.Run()
	if net.Counts.Get("unroutable") != 1 {
		t.Fatal("unroutable not counted")
	}
}

func TestDuplicateAttachPanics(t *testing.T) {
	sim := des.New()
	net := New(sim, Config{})
	net.Attach(NodeFunc(func(*packet.Packet) {}), addrA)
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic on duplicate attach")
		}
	}()
	net.Attach(NodeFunc(func(*packet.Packet) {}), addrA)
}

func TestMultiAddressNode(t *testing.T) {
	sim := des.New()
	net := New(sim, Config{})
	count := 0
	node := NodeFunc(func(*packet.Packet) { count++ })
	net.Attach(node, addrB, addrC)
	net.Send(mkPkt("2001:db8::a", "2001:db8::b"))
	net.Send(mkPkt("2001:db8::a", "2001:db8::c"))
	sim.Run()
	if count != 2 {
		t.Fatalf("count = %d, want 2", count)
	}
}

func TestLoss(t *testing.T) {
	sim := des.New()
	net := New(sim, Config{LossProb: 1.0})
	delivered := false
	net.Attach(NodeFunc(func(*packet.Packet) { delivered = true }), addrB)
	net.Send(mkPkt("2001:db8::a", "2001:db8::b"))
	sim.Run()
	if delivered {
		t.Fatal("packet delivered despite 100% loss")
	}
	if net.Counts.Get("lost") != 1 {
		t.Fatal("loss not counted")
	}
}

func TestLossStatistics(t *testing.T) {
	sim := des.New()
	net := New(sim, Config{LossProb: 0.3, Seed: 7})
	delivered := 0
	net.Attach(NodeFunc(func(*packet.Packet) { delivered++ }), addrB)
	const n = 10000
	for i := 0; i < n; i++ {
		net.Send(mkPkt("2001:db8::a", "2001:db8::b"))
	}
	sim.Run()
	frac := float64(delivered) / n
	if frac < 0.67 || frac > 0.73 {
		t.Fatalf("delivered fraction = %v, want ≈0.7", frac)
	}
}

func TestJitterBounded(t *testing.T) {
	sim := des.New()
	net := New(sim, Config{Latency: time.Millisecond, JitterFrac: 0.5, Seed: 3})
	var times []time.Duration
	net.Attach(NodeFunc(func(*packet.Packet) { times = append(times, sim.Now()) }), addrB)
	for i := 0; i < 1000; i++ {
		net.Send(mkPkt("2001:db8::a", "2001:db8::b"))
	}
	sim.Run()
	for _, at := range times {
		if at < 500*time.Microsecond || at > 1500*time.Microsecond {
			t.Fatalf("delivery at %v outside jitter bounds", at)
		}
	}
}

// TestSRHSurvivesTheWire checks that segment routing state is carried
// byte-accurately across a hop.
func TestSRHSurvivesTheWire(t *testing.T) {
	sim := des.New()
	net := New(sim, Config{VerifyChecksums: true})
	var got *packet.Packet
	net.Attach(NodeFunc(func(p *packet.Packet) { got = p.Clone() }), addrB)

	p := mkPkt("2001:db8::a", "2001:db8::b")
	p.SRH = srv6.MustNew(ipv6.ProtoTCP, addrB, addrC)
	net.Send(p)
	sim.Run()
	if got == nil || got.SRH == nil {
		t.Fatal("SRH lost on the wire")
	}
	if got.SRH.SegmentsLeft != 1 {
		t.Fatalf("SL = %d", got.SRH.SegmentsLeft)
	}
	final, _ := got.SRH.Final()
	if final != addrC {
		t.Fatalf("final = %v", final)
	}
}

func TestTapSeesPackets(t *testing.T) {
	sim := des.New()
	net := New(sim, Config{})
	net.Attach(NodeFunc(func(*packet.Packet) {}), addrB)
	count := 0
	net.AddTap(func(at time.Duration, dst netip.Addr, pkt *packet.Packet) {
		count++
		if dst != addrB {
			t.Errorf("tap dst = %v", dst)
		}
		if at != sim.Now() {
			t.Errorf("tap at = %v, now = %v", at, sim.Now())
		}
	})
	net.Send(mkPkt("2001:db8::a", "2001:db8::b"))
	net.Send(mkPkt("2001:db8::a", "2001:db8::b"))
	sim.Run()
	if count != 2 {
		t.Fatalf("tap saw %d packets, want 2", count)
	}
}

func TestSynchronousReplyFromHandler(t *testing.T) {
	// A node may send from within Handle (that is how servers reply);
	// the reply must be delivered on a later event, not recursively.
	sim := des.New()
	net := New(sim, Config{Latency: time.Millisecond})
	gotReply := false
	net.Attach(NodeFunc(func(p *packet.Packet) {
		reply := mkPkt("2001:db8::b", "2001:db8::a")
		net.Send(reply)
	}), addrB)
	net.Attach(NodeFunc(func(p *packet.Packet) { gotReply = true }), addrA)
	net.Send(mkPkt("2001:db8::a", "2001:db8::b"))
	sim.Run()
	if !gotReply {
		t.Fatal("reply not delivered")
	}
	if sim.Now() != 2*time.Millisecond {
		t.Fatalf("round trip took %v, want 2ms", sim.Now())
	}
}

func BenchmarkSendDeliver(b *testing.B) {
	sim := des.New()
	net := New(sim, Config{VerifyChecksums: true})
	net.Attach(NodeFunc(func(*packet.Packet) {}), addrB)
	p := mkPkt("2001:db8::a", "2001:db8::b")
	p.SRH = srv6.MustNew(ipv6.ProtoTCP, addrB, addrC)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		net.Send(p)
		sim.Run()
	}
}

// TestWarmHopAllocatesNothing: once the free lists hold a transmission
// slot and a delivery slot, carrying an SRH packet over one hop — marshal,
// schedule, parse, hand to the node — leaves no garbage.
func TestWarmHopAllocatesNothing(t *testing.T) {
	sim := des.New()
	net := New(sim, Config{VerifyChecksums: true})
	var rx int
	net.Attach(NodeFunc(func(p *packet.Packet) {
		if p.SRH == nil || len(p.SRH.Segments) != 3 {
			t.Fatalf("delivered SRH = %v", p.SRH)
		}
		rx++
	}), addrB)
	p := mkPkt("2001:db8::a", "2001:db8::b")
	p.SRH = srv6.MustNew(ipv6.ProtoTCP, addrB, addrC, addrA)
	hop := func() {
		net.Send(p)
		sim.Step()
	}
	hop()
	if n := testing.AllocsPerRun(100, hop); n != 0 {
		t.Fatalf("warm hop: %v allocs, want 0", n)
	}
	if rx != 102 { // the warm-up, AllocsPerRun's own, and 100 measured
		t.Fatalf("delivered %d packets", rx)
	}
}

// TestRecycledSlotKeepsDeliveriesApart: the slot's SRH storage carries
// nothing from one delivery into the next — with a header, without one,
// with a shorter one — whatever the node did to pkt.SRH, and a Clone
// taken during Handle outlives the recycling.
func TestRecycledSlotKeepsDeliveriesApart(t *testing.T) {
	sim := des.New()
	net := New(sim, Config{})
	var kept *packet.Packet
	var paths [][]netip.Addr
	net.Attach(NodeFunc(func(p *packet.Packet) {
		if p.SRH != nil {
			paths = append(paths, p.SRH.Path())
		} else {
			paths = append(paths, nil)
		}
		if kept == nil {
			kept = p.Clone()
		}
		p.SRH = nil // as the LB does when it strips the header
	}), addrB)
	send := func(path ...netip.Addr) {
		p := mkPkt("2001:db8::a", "2001:db8::b")
		if len(path) > 0 {
			p.SRH = srv6.MustNew(ipv6.ProtoTCP, path...)
		}
		net.Send(p)
		sim.Run()
	}
	send(addrB, addrC, addrA)
	send()
	send(addrB, addrC)
	want := [][]netip.Addr{{addrB, addrC, addrA}, nil, {addrB, addrC}}
	if !reflect.DeepEqual(paths, want) {
		t.Fatalf("delivered paths = %v, want %v", paths, want)
	}
	if got := kept.SRH.Path(); !slices.Equal(got, want[0]) {
		t.Fatalf("cloned SRH reads %v, want %v", got, want[0])
	}
}
