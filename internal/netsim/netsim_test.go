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
	net := New(sim, Config{VerifyChecksums: true})
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
	if gotAt != Latency {
		t.Fatalf("delivered at %v, want %v", gotAt, Latency)
	}
	if got.IP.Src != addrA {
		t.Fatalf("src = %v", got.IP.Src)
	}
	if net.Counts.Get("tx") != 1 || net.Counts.Get("rx") != 1 {
		t.Fatal("counters wrong")
	}
}

// The copy path (no VerifyChecksums) delivers after the same Latency.
func TestDefaultLatency(t *testing.T) {
	sim := des.New()
	net := New(sim, Config{})
	var at time.Duration
	net.Attach(NodeFunc(func(*packet.Packet) { at = sim.Now() }), addrB)
	net.Send(mkPkt("2001:db8::a", "2001:db8::b"))
	sim.Run()
	if at != Latency {
		t.Fatalf("at = %v, want %v", at, Latency)
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
	net := New(sim, Config{JitterFrac: 0.5, Seed: 3})
	var times []time.Duration
	net.Attach(NodeFunc(func(*packet.Packet) { times = append(times, sim.Now()) }), addrB)
	for i := 0; i < 1000; i++ {
		net.Send(mkPkt("2001:db8::a", "2001:db8::b"))
	}
	sim.Run()
	for _, at := range times {
		if at < Latency/2 || at > 3*Latency/2 {
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
	net := New(sim, Config{})
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
	if sim.Now() != 2*Latency {
		t.Fatalf("round trip took %v, want %v", sim.Now(), 2*Latency)
	}
}

// TestSendRejectsWhatMarshalRejects: in both modes, and before a lossy
// link drops the packet, Send refuses a packet that has no wire form
// with Marshal's own error — a programming error in the sender, so a
// panic.
func TestSendRejectsWhatMarshalRejects(t *testing.T) {
	bad := map[string]func(p *packet.Packet){
		"mapped src":   func(p *packet.Packet) { p.IP.Src = netip.MustParseAddr("::ffff:10.0.0.1") },
		"zero dst":     func(p *packet.Packet) { p.IP.Dst = netip.Addr{} },
		"empty SRH":    func(p *packet.Packet) { p.SRH = &srv6.SRH{} },
		"SL past list": func(p *packet.Packet) { p.SRH = &srv6.SRH{SegmentsLeft: 1, Segments: []netip.Addr{addrB}} },
		"zero segment": func(p *packet.Packet) { p.SRH = &srv6.SRH{Segments: []netip.Addr{addrB, {}}} },
		"65,536 bytes": func(p *packet.Packet) { p.TCP.Payload = make([]byte, 65536-tcpseg.HeaderLen) },
		"with SRH, too": func(p *packet.Packet) {
			p.SRH = srv6.MustNew(ipv6.ProtoTCP, addrB, addrC)
			p.TCP.Payload = make([]byte, 65500)
		},
	}
	for name, breakIt := range bad {
		ref := mkPkt("2001:db8::a", "2001:db8::b")
		breakIt(ref)
		_, err := ref.Marshal(nil)
		if err == nil {
			t.Fatalf("%s: Marshal accepts it", name)
		}
		want := "netsim: marshal failed: " + err.Error()
		for _, m := range modes {
			for _, loss := range []float64{0, 1} {
				cfg := m.cfg
				cfg.LossProb = loss
				net := New(des.New(), cfg)
				p := mkPkt("2001:db8::a", "2001:db8::b")
				breakIt(p)
				func() {
					defer func() {
						if got := recover(); got != want {
							t.Errorf("%s, %s, loss %v: panic %v, want %q", name, m.name, loss, got, want)
						}
					}()
					net.Send(p)
				}()
			}
		}
	}
}

// modes are the two ways a hop carries a packet: the copy, and the
// marshal → bytes → parse reference path.
var modes = []struct {
	name string
	cfg  Config
}{
	{"copy", Config{}},
	{"wire", Config{VerifyChecksums: true}},
}

func BenchmarkSendDeliver(b *testing.B) {
	for _, m := range modes {
		b.Run(m.name, func(b *testing.B) {
			sim := des.New()
			net := New(sim, m.cfg)
			net.Attach(NodeFunc(func(*packet.Packet) {}), addrB)
			p := mkPkt("2001:db8::a", "2001:db8::b")
			p.SRH = srv6.MustNew(ipv6.ProtoTCP, addrB, addrC)
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				net.Send(p)
				sim.Run()
			}
		})
	}
}

// TestWarmHopAllocatesNothing: once the free list holds a slot, carrying
// an SRH packet with a payload over one hop — check and copy, or marshal
// and parse; schedule; hand to the node — leaves no garbage.
func TestWarmHopAllocatesNothing(t *testing.T) {
	for _, m := range modes {
		t.Run(m.name, func(t *testing.T) {
			sim := des.New()
			net := New(sim, m.cfg)
			var rx int
			net.Attach(NodeFunc(func(p *packet.Packet) {
				if p.SRH == nil || len(p.SRH.Segments) != 3 || string(p.TCP.Payload) != "GET /" {
					t.Fatalf("delivered %v", p)
				}
				rx++
			}), addrB)
			p := mkPkt("2001:db8::a", "2001:db8::b")
			p.SRH = srv6.MustNew(ipv6.ProtoTCP, addrB, addrC, addrA)
			p.TCP.Payload = []byte("GET /")
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
		})
	}
}

// TestRecycledSlotKeepsDeliveriesApart: the slot's storage carries
// nothing from one delivery into the next — with a header, without one,
// with a shorter one — whatever the node did to pkt.SRH, and a Clone
// taken during Handle outlives the recycling. Nor does the sender's: one
// that keeps its header and payload buffer and rewrites both as soon as
// Send returns (as the LB's hunt header, a router's SYN-ACK header and
// the generator's scratch packet are) has its packet delivered as sent.
func TestRecycledSlotKeepsDeliveriesApart(t *testing.T) {
	for _, m := range modes {
		t.Run(m.name, func(t *testing.T) {
			sim := des.New()
			net := New(sim, m.cfg)
			var kept *packet.Packet
			var paths [][]netip.Addr
			var payloads []string
			net.Attach(NodeFunc(func(p *packet.Packet) {
				if p.SRH != nil {
					paths = append(paths, p.SRH.Path())
				} else {
					paths = append(paths, nil)
				}
				payloads = append(payloads, string(p.TCP.Payload))
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

			var hdr srv6.SRH
			body := []byte("first")
			p := mkPkt("2001:db8::a", "2001:db8::b")
			p.SRH, p.TCP.Payload = &hdr, body
			for i, path := range [][]netip.Addr{{addrB, addrA}, {addrB, addrC, addrA}} {
				if err := hdr.SetPath(ipv6.ProtoTCP, path...); err != nil {
					t.Fatal(err)
				}
				net.Send(p)
				if err := hdr.SetPath(ipv6.ProtoTCP, addrC, addrA, addrC, addrA); err != nil {
					t.Fatal(err)
				}
				copy(body, []string{"again", "gone!"}[i])
			}
			sim.Run()

			want := [][]netip.Addr{{addrB, addrC, addrA}, nil, {addrB, addrC}, {addrB, addrA}, {addrB, addrC, addrA}}
			if !reflect.DeepEqual(paths, want) {
				t.Fatalf("delivered paths = %v, want %v", paths, want)
			}
			if want := []string{"", "", "", "first", "again"}; !slices.Equal(payloads, want) {
				t.Fatalf("delivered payloads = %q, want %q", payloads, want)
			}
			if got := kept.SRH.Path(); !slices.Equal(got, want[0]) {
				t.Fatalf("cloned SRH reads %v, want %v", got, want[0])
			}
		})
	}
}
