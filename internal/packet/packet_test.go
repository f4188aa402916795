package packet

import (
	"bytes"
	"errors"
	"strings"
	"testing"
	"testing/quick"

	"srlb/internal/ipv6"
	"srlb/internal/srv6"
	"srlb/internal/tcpseg"
)

var (
	client = ipv6.MustAddr("2001:db8:c::1")
	lb     = ipv6.MustAddr("2001:db8:1b::1")
	s1     = ipv6.MustAddr("2001:db8:5::1")
	s2     = ipv6.MustAddr("2001:db8:5::2")
	vip    = ipv6.MustAddr("2001:db8:f00d::1")
)

func synPacket(t testing.TB) *Packet {
	t.Helper()
	return &Packet{
		IP: ipv6.Header{Src: client, Dst: vip, HopLimit: 64},
		TCP: tcpseg.Segment{
			SrcPort: 50000, DstPort: 80,
			Seq:   1000,
			Flags: tcpseg.FlagSYN,
		},
	}
}

func TestPlainRoundTrip(t *testing.T) {
	p := synPacket(t)
	p.TCP.Payload = []byte("x")
	b, err := p.Marshal(nil)
	if err != nil {
		t.Fatal(err)
	}
	got, err := Parse(b, true)
	if err != nil {
		t.Fatal(err)
	}
	if got.IP.Src != client || got.IP.Dst != vip {
		t.Fatalf("addrs: %v -> %v", got.IP.Src, got.IP.Dst)
	}
	if got.SRH != nil {
		t.Fatal("unexpected SRH")
	}
	if !got.IsSYN() {
		t.Fatal("should be a SYN")
	}
	if !bytes.Equal(got.TCP.Payload, []byte("x")) {
		t.Fatal("payload mismatch")
	}
}

func TestSRHRoundTrip(t *testing.T) {
	p := synPacket(t)
	srh, err := srv6.New(ipv6.ProtoTCP, s1, s2, vip)
	if err != nil {
		t.Fatal(err)
	}
	p.SRH = srh
	p.IP.Dst = s1 // destination = active segment
	b, err := p.Marshal(nil)
	if err != nil {
		t.Fatal(err)
	}
	got, err := Parse(b, true)
	if err != nil {
		t.Fatal(err)
	}
	if got.SRH == nil {
		t.Fatal("SRH missing after parse")
	}
	if got.SRH.SegmentsLeft != 2 {
		t.Fatalf("SL = %d", got.SRH.SegmentsLeft)
	}
	active, err := got.SRH.Active()
	if err != nil || active != s1 {
		t.Fatalf("active = %v", active)
	}
	if got.IP.Dst != s1 {
		t.Fatalf("dst = %v, want s1", got.IP.Dst)
	}
}

// TestChecksumStableAcrossSegmentAdvance is the property that makes
// Service Hunting transparent to TCP: the upper-layer checksum is bound to
// the final segment (the VIP), so rewriting dst + SL at an intermediate
// server does not invalidate it.
func TestChecksumStableAcrossSegmentAdvance(t *testing.T) {
	p := synPacket(t)
	p.SRH = srv6.MustNew(ipv6.ProtoTCP, s1, s2, vip)
	p.IP.Dst = s1
	b1, err := p.Marshal(nil)
	if err != nil {
		t.Fatal(err)
	}
	hop, err := Parse(b1, true)
	if err != nil {
		t.Fatal(err)
	}
	// Simulate s1 refusing: advance the segment and forward.
	next, err := hop.SRH.Advance()
	if err != nil {
		t.Fatal(err)
	}
	hop.IP.Dst = next
	b2, err := hop.Marshal(nil)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := Parse(b2, true); err != nil {
		t.Fatalf("checksum broke after segment advance: %v", err)
	}
}

func TestFlowKeyUsesLogicalDst(t *testing.T) {
	p := synPacket(t)
	plainKey := p.Flow()

	q := synPacket(t)
	q.SRH = srv6.MustNew(ipv6.ProtoTCP, s1, s2, vip)
	q.IP.Dst = s1
	srKey := q.Flow()

	if plainKey != srKey {
		t.Fatalf("flow key must be invariant under SR steering: %v vs %v", plainKey, srKey)
	}
	if srKey.Dst != vip {
		t.Fatalf("flow dst = %v, want vip", srKey.Dst)
	}
}

func TestFlowKeyReverse(t *testing.T) {
	k := FlowKey{Src: client, Dst: vip, SrcPort: 50000, DstPort: 80}
	r := k.Reverse()
	if r.Src != vip || r.Dst != client || r.SrcPort != 80 || r.DstPort != 50000 {
		t.Fatalf("reverse = %+v", r)
	}
	if r.Reverse() != k {
		t.Fatal("double reverse must be identity")
	}
}

func TestIsSYNACK(t *testing.T) {
	p := synPacket(t)
	if p.IsSYNACK() {
		t.Fatal("SYN is not SYN-ACK")
	}
	p.TCP.Flags = tcpseg.FlagSYN | tcpseg.FlagACK
	if !p.IsSYNACK() || p.IsSYN() {
		t.Fatal("SYN-ACK misclassified")
	}
}

func TestParseRejectsTruncatedPayloadLen(t *testing.T) {
	p := synPacket(t)
	b, err := p.Marshal(nil)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := Parse(b[:len(b)-2], false); err == nil {
		t.Fatal("truncated packet accepted")
	}
}

func TestParseRejectsNonTCP(t *testing.T) {
	h := ipv6.Header{Src: client, Dst: vip, NextHeader: ipv6.ProtoNone, HopLimit: 1}
	b, err := h.Marshal(nil)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := Parse(b, false); err == nil {
		t.Fatal("non-TCP packet accepted")
	}
}

func TestCloneIsDeep(t *testing.T) {
	p := synPacket(t)
	p.SRH = srv6.MustNew(ipv6.ProtoTCP, s1, vip)
	p.TCP.Payload = []byte("abc")
	q := p.Clone()
	q.SRH.Segments[0] = lb
	q.TCP.Payload[0] = 'z'
	if p.SRH.Segments[0] == lb {
		t.Fatal("clone aliases segment list")
	}
	if p.TCP.Payload[0] == 'z' {
		t.Fatal("clone aliases payload")
	}
}

func TestStringContainsFlagsAndSRH(t *testing.T) {
	p := synPacket(t)
	p.SRH = srv6.MustNew(ipv6.ProtoTCP, s1, vip)
	s := p.String()
	if !strings.Contains(s, "SYN") || !strings.Contains(s, "SRH[") {
		t.Fatalf("String() = %q", s)
	}
}

func TestMarshalSetsLengthsAndDefaults(t *testing.T) {
	p := synPacket(t)
	p.IP.HopLimit = 0 // should default
	p.SRH = srv6.MustNew(ipv6.ProtoTCP, s1, s2, vip)
	p.TCP.Payload = []byte("payload")
	b, err := p.Marshal(nil)
	if err != nil {
		t.Fatal(err)
	}
	got, err := Parse(b, true)
	if err != nil {
		t.Fatal(err)
	}
	wantPayloadLen := p.SRH.WireLen() + tcpseg.HeaderLen + len("payload")
	if int(got.IP.PayloadLen) != wantPayloadLen {
		t.Fatalf("payload len = %d, want %d", got.IP.PayloadLen, wantPayloadLen)
	}
	if got.IP.HopLimit != DefaultHopLimit {
		t.Fatalf("hop limit = %d, want %d", got.IP.HopLimit, DefaultHopLimit)
	}
	if got.IP.NextHeader != ipv6.ProtoRouting {
		t.Fatalf("next header = %d, want routing", got.IP.NextHeader)
	}
}

// TestMarshalRejectsOversizedPayload: IPv6's Payload Length is 16 bits,
// so a routing header and TCP segment longer than 65,535 bytes have no
// wire form. Marshal and Check must refuse them, not wrap the length and
// emit a packet whose receiver reads a truncated payload.
func TestMarshalRejectsOversizedPayload(t *testing.T) {
	p := synPacket(t)
	p.SRH = srv6.MustNew(ipv6.ProtoTCP, s1, vip)
	p.IP.Dst = s1
	fits := 65535 - p.SRH.WireLen() - tcpseg.HeaderLen
	p.TCP.Payload = make([]byte, fits)
	b, err := p.Marshal(nil)
	if err != nil {
		t.Fatalf("largest payload: %v", err)
	}
	if got, err := Parse(b, true); err != nil || len(got.TCP.Payload) != fits {
		t.Fatalf("largest payload parsed back as %d bytes (%v), want %d", len(got.TCP.Payload), err, fits)
	}
	for _, n := range []int{fits + 1, 70000} {
		p.TCP.Payload = make([]byte, n)
		if b, err := p.Marshal(nil); !errors.Is(err, ErrTooLong) {
			t.Fatalf("%d-byte payload: %d bytes, err %v, want ErrTooLong", n, len(b), err)
		}
		if err := p.Check(); !errors.Is(err, ErrTooLong) {
			t.Fatalf("%d-byte payload: Check says %v, want ErrTooLong", n, err)
		}
	}
	p.SRH = nil
	p.TCP.Payload = make([]byte, 65535-tcpseg.HeaderLen+1)
	if _, err := p.Marshal(nil); !errors.Is(err, ErrTooLong) {
		t.Fatalf("plain packet one byte too long: err %v, want ErrTooLong", err)
	}
}

func TestRoundTripQuick(t *testing.T) {
	f := func(sp, dp uint16, seq uint32, payload []byte, withSRH bool) bool {
		p := &Packet{
			IP:  ipv6.Header{Src: client, Dst: vip},
			TCP: tcpseg.Segment{SrcPort: sp, DstPort: dp, Seq: seq, Flags: tcpseg.FlagPSH | tcpseg.FlagACK, Payload: payload},
		}
		if withSRH {
			p.SRH = srv6.MustNew(ipv6.ProtoTCP, s1, s2, vip)
			p.IP.Dst = s1
		}
		b, err := p.Marshal(nil)
		if err != nil {
			return false
		}
		got, err := Parse(b, true)
		if err != nil {
			return false
		}
		return got.TCP.SrcPort == sp && got.TCP.DstPort == dp &&
			got.TCP.Seq == seq && bytes.Equal(got.TCP.Payload, payload) &&
			(got.SRH != nil) == withSRH
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Fatal(err)
	}
}

func BenchmarkMarshalWithSRH(b *testing.B) {
	p := synPacket(b)
	p.SRH = srv6.MustNew(ipv6.ProtoTCP, s1, s2, vip)
	p.IP.Dst = s1
	buf := make([]byte, 0, 256)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		buf = buf[:0]
		if _, err := p.Marshal(buf); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkParseWithSRH(b *testing.B) {
	p := synPacket(b)
	p.SRH = srv6.MustNew(ipv6.ProtoTCP, s1, s2, vip)
	p.IP.Dst = s1
	buf, _ := p.Marshal(nil)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := Parse(buf, false); err != nil {
			b.Fatal(err)
		}
	}
}

// TestParseIntoReusedStorageAllocatesNothing: a receiver that keeps one
// SRH beside its Packet and points p.SRH at it before the parse (netsim's
// delivery slot) decodes a hunt packet without touching the heap.
func TestParseIntoReusedStorageAllocatesNothing(t *testing.T) {
	p := synPacket(t)
	p.SRH = srv6.MustNew(ipv6.ProtoTCP, s1, s2, vip)
	wire, err := p.Marshal(nil)
	if err != nil {
		t.Fatal(err)
	}
	var into Packet
	var storage srv6.SRH
	parse := func() {
		into.SRH = &storage
		if err := ParseInto(&into, wire, true); err != nil {
			t.Fatal(err)
		}
	}
	parse() // the segment list grows once
	if n := testing.AllocsPerRun(100, parse); n != 0 {
		t.Fatalf("ParseInto into reused storage: %v allocs, want 0", n)
	}
	if into.SRH != &storage || len(storage.Segments) != 3 {
		t.Fatalf("parsed beside the storage: %v", into.SRH)
	}
}
