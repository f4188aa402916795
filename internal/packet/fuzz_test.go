package packet

import (
	"bytes"
	"errors"
	"fmt"
	"math/rand/v2"
	"net/netip"
	"reflect"
	"slices"
	"testing"
	"testing/quick"

	"srlb/internal/ipv6"
	"srlb/internal/srv6"
	"srlb/internal/tcpseg"
)

// TestParseNeverPanicsOnRandomBytes: the full packet parser must reject —
// never crash on — arbitrary input. A data-plane element parses whatever
// the wire hands it.
func TestParseNeverPanicsOnRandomBytes(t *testing.T) {
	f := func(b []byte) bool {
		defer func() {
			if r := recover(); r != nil {
				t.Fatalf("Parse panicked on %d bytes: %v", len(b), r)
			}
		}()
		p, err := Parse(b, true)
		// Either a parse error or a structurally valid packet.
		return err != nil || p != nil
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 5000}); err != nil {
		t.Fatal(err)
	}
}

// TestParseNeverPanicsOnCorruptedValidPackets flips random bits in
// well-formed packets — closer to real wire corruption than pure noise.
func TestParseNeverPanicsOnCorruptedValidPackets(t *testing.T) {
	r := rand.New(rand.NewPCG(1, 2))
	base := &Packet{
		IP: ipv6.Header{Src: client, Dst: s1},
		SRH: srv6.MustNew(ipv6.ProtoTCP,
			s1, s2, vip),
		TCP: tcpseg.Segment{
			SrcPort: 40000, DstPort: 80, Flags: tcpseg.FlagSYN,
			Payload: []byte("GET /wiki/index.php?title=Main HTTP/1.1"),
		},
	}
	wire, err := base.Marshal(nil)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 20000; i++ {
		c := append([]byte(nil), wire...)
		flips := 1 + r.IntN(8)
		for j := 0; j < flips; j++ {
			pos := r.IntN(len(c))
			c[pos] ^= byte(1 << r.IntN(8))
		}
		if r.IntN(4) == 0 {
			c = c[:r.IntN(len(c)+1)] // also truncate sometimes
		}
		func() {
			defer func() {
				if rec := recover(); rec != nil {
					t.Fatalf("Parse panicked on corrupted packet (iter %d): %v", i, rec)
				}
			}()
			Parse(c, true) //nolint:errcheck // any outcome but a panic is fine
		}()
	}
}

// TestParseExtensionChainBounds: a routing header claiming more segments
// than the buffer holds must error cleanly.
func TestParseExtensionChainBounds(t *testing.T) {
	p := &Packet{
		IP:  ipv6.Header{Src: client, Dst: s1},
		SRH: srv6.MustNew(ipv6.ProtoTCP, s1, vip),
		TCP: tcpseg.Segment{SrcPort: 1, DstPort: 2, Flags: tcpseg.FlagSYN},
	}
	wire, err := p.Marshal(nil)
	if err != nil {
		t.Fatal(err)
	}
	// Inflate the SRH's Hdr Ext Len beyond the actual payload.
	c := append([]byte(nil), wire...)
	c[ipv6.HeaderLen+1] = 0xff
	if _, err := Parse(c, false); err == nil {
		t.Fatal("oversized ext len accepted")
	}
}

// fuzzSeedWires returns the wire forms the data plane emits — a hunt
// [s1,s2,VIP], a steer [s,VIP], a SYN-ACK [s,LB,c] past its first
// segment with non-zero Flags/Tag, a plain TCP packet — and a header at
// the 127-segment limit.
func fuzzSeedWires(tb testing.TB) [][]byte {
	tb.Helper()
	long := make([]netip.Addr, srv6.MaxSegments)
	for i := range long {
		long[i] = s1
	}
	long[len(long)-1] = vip
	synack := srv6.MustNew(ipv6.ProtoTCP, s1, lb, client)
	synack.SegmentsLeft, synack.Flags, synack.Tag = 1, 0xa5, 0xbeef
	body := []byte("GET /wiki/index.php?title=Main HTTP/1.1")
	var wires [][]byte
	for _, p := range []*Packet{
		{IP: ipv6.Header{Src: client, Dst: s1}, SRH: srv6.MustNew(ipv6.ProtoTCP, s1, s2, vip),
			TCP: tcpseg.Segment{SrcPort: 40000, DstPort: 80, Flags: tcpseg.FlagSYN, Payload: body}},
		{IP: ipv6.Header{Src: client, Dst: s2}, SRH: srv6.MustNew(ipv6.ProtoTCP, s2, vip),
			TCP: tcpseg.Segment{SrcPort: 40000, DstPort: 80, Seq: 1, Ack: 2, Flags: tcpseg.FlagACK, Payload: body}},
		{IP: ipv6.Header{Src: vip, Dst: lb}, SRH: synack,
			TCP: tcpseg.Segment{SrcPort: 80, DstPort: 40000, Seq: 1, Ack: 1, Flags: tcpseg.FlagSYN | tcpseg.FlagACK}},
		{IP: ipv6.Header{Src: vip, Dst: client, TrafficClass: 0x2e, FlowLabel: 0xabcde},
			TCP: tcpseg.Segment{SrcPort: 80, DstPort: 40000, Seq: 2, Ack: 2, Window: 512,
				Flags: tcpseg.FlagPSH | tcpseg.FlagACK | tcpseg.FlagFIN, Payload: []byte("HTTP/1.1 200 OK\r\n\r\n")}},
		{IP: ipv6.Header{Src: client, Dst: s1}, SRH: srv6.MustNew(ipv6.ProtoTCP, long...),
			TCP: tcpseg.Segment{SrcPort: 1, DstPort: 2, Flags: tcpseg.FlagSYN}},
	} {
		wire, err := p.Marshal(nil)
		if err != nil {
			tb.Fatal(err)
		}
		wires = append(wires, wire)
	}
	return wires
}

// checkSRHBounds: no accepted SegmentsLeft / Last Entry / Hdr Ext Len
// combination lets an accessor index outside the segment list, and a
// header with SegmentsLeft = k advances exactly k times.
func checkSRHBounds(t *testing.T, h *srv6.SRH) {
	t.Helper()
	n := len(h.Segments)
	if n == 0 || n > srv6.MaxSegments || int(h.SegmentsLeft) >= n || int(h.LastEntry()) != n-1 {
		t.Fatalf("accepted SRH out of range: %d segments, SL=%d", n, h.SegmentsLeft)
	}
	if a, err := h.Active(); err != nil || a != h.Segments[h.SegmentsLeft] {
		t.Fatalf("Active() = %v, %v", a, err)
	}
	if a, err := h.Final(); err != nil || a != h.Segments[0] {
		t.Fatalf("Final() = %v, %v", a, err)
	}
	// How the LB reads "who accepted": one position behind the active one.
	if _, err := h.SegmentAtSL(h.SegmentsLeft + 1); (err == nil) != (int(h.SegmentsLeft)+1 < n) {
		t.Fatalf("SegmentAtSL(SL+1) with SL=%d of %d: %v", h.SegmentsLeft, n, err)
	}
	walk := *h // Advance only touches SegmentsLeft
	for left := int(h.SegmentsLeft); left > 0; left-- {
		if a, err := walk.Advance(); err != nil || a != h.Segments[left-1] {
			t.Fatalf("Advance() at SL=%d: %v, %v", left, a, err)
		}
	}
	if _, err := walk.Advance(); !errors.Is(err, srv6.ErrExhausted) {
		t.Fatalf("Advance() past the last segment: %v", err)
	}
}

// samePacket compares two parsed packets field for field.
func samePacket(a, b *Packet) bool {
	if a.IP != b.IP || (a.SRH == nil) != (b.SRH == nil) {
		return false
	}
	if a.SRH != nil {
		x, y := a.SRH, b.SRH
		if x.NextHeader != y.NextHeader || x.SegmentsLeft != y.SegmentsLeft || x.Flags != y.Flags ||
			x.Tag != y.Tag || !slices.Equal(x.Segments, y.Segments) {
			return false
		}
	}
	x, y := a.TCP, b.TCP
	x.Payload, y.Payload = nil, nil
	return reflect.DeepEqual(x, y) && bytes.Equal(a.TCP.Payload, b.TCP.Payload)
}

// checkParse runs the single-wire properties on one input: Parse never
// panics, with and without checksum verification; what it accepts is
// index-safe and re-marshals (unless an address on the wire is one the
// simulated LAN refuses to emit); the re-marshaled bytes carry a valid
// checksum and are a fixed point of parse → marshal. It returns the
// packet parsed without verification, or nil when wire is rejected.
func checkParse(t *testing.T, wire []byte) *Packet {
	t.Helper()
	verified, verr := Parse(wire, true)
	p, err := Parse(wire, false)
	if err != nil {
		if verr == nil {
			t.Fatalf("accepted only under verification: %v", err)
		}
		return nil
	}
	if verr == nil && !samePacket(verified, p) {
		t.Fatalf("verification changed the parse:\n %v\n %v", verified, p)
	} else if verr != nil && !errors.Is(verr, tcpseg.ErrBadChecksum) {
		t.Fatalf("rejected only under verification, not for the checksum: %v", verr)
	}
	if p.SRH != nil {
		checkSRHBounds(t, p.SRH)
	}
	if got := p.Clone(); !samePacket(got, p) {
		t.Fatalf("Clone differs:\n %v\n %v", got, p)
	}
	b, err := p.Clone().Marshal(nil)
	if err != nil {
		if !errors.Is(err, ipv6.ErrNotV6Addr) {
			t.Fatalf("parsed packet does not re-marshal: %v", err)
		}
		return p
	}
	// The first re-marshal normalises (lengths, checksum, hop limit, TCP
	// options dropped); from there on the bytes may not move.
	p2, err := Parse(b, true)
	if err != nil {
		t.Fatalf("re-marshaled packet rejected: %v", err)
	}
	c, err := p2.Clone().Marshal(nil)
	if err != nil || !bytes.Equal(b, c) {
		t.Fatalf("parse → marshal is not a fixed point (%v):\n %x\n %x", err, b, c)
	}
	if p3, err := Parse(c, true); err != nil || !samePacket(p2, p3) {
		t.Fatalf("parse → marshal → parse is not a fixed point (%v):\n %v\n %v", err, p2, p3)
	}
	return p
}

// checkReuse: parsing into a Packet whose SRH storage still holds the
// previous delivery's header — netsim's recycled slot, which re-points
// pkt.SRH at its own storage before every parse — is parsing into a zero
// Packet: field for field, and byte for byte on re-marshal, whatever the
// storage held (a longer list, Flags and Tag, a header where the wire now
// has none and the reverse), and a Clone taken before a parse is not
// affected by it. wants holds each wire's fresh parse, nil when rejected.
func checkReuse(t *testing.T, wires [2][]byte, wants [2]*Packet) {
	t.Helper()
	var slot struct {
		pkt Packet
		srh srv6.SRH
	}
	var kept, keptWant *Packet
	for step := 0; step < 4; step++ {
		wire, want := wires[step%2], wants[step%2]
		slot.pkt.SRH = &slot.srh
		err := ParseInto(&slot.pkt, wire, false)
		if kept != nil && !samePacket(kept, keptWant) {
			t.Fatalf("step %d: the parse reached into a Clone taken before it:\n %v\n %v", step, kept, keptWant)
		}
		if (err == nil) != (want != nil) {
			t.Fatalf("step %d: reused storage changed the verdict: %v", step, err)
		}
		if err != nil {
			kept = nil
			continue
		}
		got := &slot.pkt
		if !samePacket(got, want) {
			t.Fatalf("step %d: reused storage changed the parse:\n %v\n %v", step, got, want)
		}
		if got.SRH != nil && got.SRH != &slot.srh {
			t.Fatalf("step %d: header parsed beside the storage p.SRH pointed at", step)
		}
		kept, keptWant = got.Clone(), want
		a, errA := got.Clone().Marshal(nil)
		b, errB := want.Clone().Marshal(nil)
		if (errA == nil) != (errB == nil) || !bytes.Equal(a, b) {
			t.Fatalf("step %d: reused storage changed the re-marshal (%v, %v):\n %x\n %x", step, errA, errB, a, b)
		}
	}
}

// fixUpPerturbations rewrite the header fields Marshal derives — the
// next-header chain, PayloadLen, the hop limit — so the copy path has to
// derive them as Marshal does: left alone, zeroed, and set from k to
// values that disagree with the packet, a Flow Label wider than the 20
// bits the wire carries included.
var fixUpPerturbations = []func(p *Packet, k uint32){
	func(*Packet, uint32) {},
	func(p *Packet, _ uint32) {
		p.IP.NextHeader, p.IP.PayloadLen, p.IP.HopLimit = 0, 0, 0
		if p.SRH != nil {
			p.SRH.NextHeader = 0
		}
	},
	func(p *Packet, k uint32) {
		p.IP.NextHeader, p.IP.PayloadLen, p.IP.HopLimit = uint8(k), uint16(k>>8), uint8(k>>24)
		p.IP.FlowLabel ^= k << 12
		if p.SRH != nil {
			p.SRH.NextHeader = uint8(k >> 16)
		}
	},
}

// checkCopy holds the copy path netsim runs by default to the codec it
// replaces: for each accepted packet, its fix-up fields perturbed each
// way, Check + WireLen + CopyInto and Marshal + ParseInto agree on the
// verdict and its error text, the length, the fix-ups applied to the
// sender's packet, and the packet delivered — copied through one slot
// whose storage held the previous copy, re-pointed as netsim re-points
// it. The delivered packet keeps nothing of the sender's: rewriting the
// sender's header and payload afterwards does not reach it.
func checkCopy(t *testing.T, pkts [2]*Packet) {
	t.Helper()
	var slot struct {
		pkt Packet
		srh srv6.SRH
		buf []byte
	}
	for _, p := range pkts {
		if p == nil {
			continue
		}
		k := uint32(p.WireLen()) * 2654435761
		for i, perturb := range fixUpPerturbations {
			a, b := p.Clone(), p.Clone()
			perturb(a, k)
			perturb(b, k)
			wire, errA := a.Marshal(nil)
			errB := b.Check()
			if fmt.Sprint(errA) != fmt.Sprint(errB) {
				t.Fatalf("perturbation %d: Marshal says %v, Check says %v", i, errA, errB)
			}
			if !reflect.DeepEqual(a, b) {
				t.Fatalf("perturbation %d: fix-ups differ:\n Marshal %+v %+v\n Check   %+v %+v", i, a.IP, a.SRH, b.IP, b.SRH)
			}
			if errA != nil {
				continue
			}
			if b.WireLen() != len(wire) {
				t.Fatalf("perturbation %d: WireLen %d, marshaled %d bytes", i, b.WireLen(), len(wire))
			}
			want, err := Parse(wire, true)
			if err != nil {
				t.Fatalf("perturbation %d: marshaled packet rejected: %v", i, err)
			}
			slot.pkt.SRH, slot.pkt.TCP.Payload = &slot.srh, slot.buf[:0]
			CopyInto(&slot.pkt, b)
			slot.buf = slot.pkt.TCP.Payload
			got := &slot.pkt
			if got.SRH != nil && got.SRH != &slot.srh {
				t.Fatalf("perturbation %d: header copied beside the storage q.SRH pointed at", i)
			}
			if !reflect.DeepEqual(got, want) {
				t.Fatalf("perturbation %d: copy differs from marshal → parse:\n %+v %+v\n %+v %+v", i, got, got.SRH, want, want.SRH)
			}
			if b.SRH != nil {
				b.SRH.SegmentsLeft, b.SRH.Flags, b.SRH.Tag = ^b.SRH.SegmentsLeft, ^b.SRH.Flags, ^b.SRH.Tag
				clear(b.SRH.Segments)
			}
			for j := range b.TCP.Payload {
				b.TCP.Payload[j] ^= 0xff
			}
			if !reflect.DeepEqual(got, want) {
				t.Fatalf("perturbation %d: rewriting the sender's packet reached the copy", i)
			}
		}
	}
}

// FuzzPacketParse is the wire parser's safety net: every delivery of
// every simulated hop under VerifyChecksums, and every packet a hostile
// network injects, goes through ParseInto, into storage that held another
// packet before. It is the copy path's too: by default every hop goes
// through Check and CopyInto, which must agree with the codec on every
// packet the parser accepts.
func FuzzPacketParse(f *testing.F) {
	r := rand.New(rand.NewPCG(3, 4))
	var seeds [][]byte
	for _, wire := range fuzzSeedWires(f) {
		flipped := slices.Clone(wire)
		for j := 0; j < 3; j++ {
			flipped[r.IntN(len(flipped))] ^= byte(1 << r.IntN(8))
		}
		seeds = append(seeds, wire, wire[:len(wire)-1], wire[:ipv6.HeaderLen+8], flipped)
	}
	seeds = append(seeds, []byte{})
	for i, wire := range seeds {
		for j := 0; j < len(seeds); j += 4 { // storage last held an intact seed…
			f.Add(seeds[j], wire)
		}
		f.Add(seeds[(i+1)%len(seeds)], wire) // …or a damaged one
	}
	f.Fuzz(func(t *testing.T, prev, wire []byte) {
		wires := [2][]byte{prev, wire}
		pkts := [2]*Packet{checkParse(t, prev), checkParse(t, wire)}
		checkReuse(t, wires, pkts)
		checkCopy(t, pkts)
	})
}
