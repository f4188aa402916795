package srv6

import (
	"bytes"
	"net/netip"
	"reflect"
	"strings"
	"testing"
	"testing/quick"

	"srlb/internal/ipv6"
)

var (
	s1  = ipv6.MustAddr("2001:db8:5::1")
	s2  = ipv6.MustAddr("2001:db8:5::2")
	vip = ipv6.MustAddr("2001:db8:f00d::1")
	lb  = ipv6.MustAddr("2001:db8:1b::1")
)

func TestNewPathOrder(t *testing.T) {
	h := MustNew(ipv6.ProtoTCP, s1, s2, vip)
	if h.SegmentsLeft != 2 {
		t.Fatalf("SL = %d, want 2", h.SegmentsLeft)
	}
	// Wire order is reversed: Segments[0] is the final segment (the VIP).
	if h.Segments[0] != vip || h.Segments[1] != s2 || h.Segments[2] != s1 {
		t.Fatalf("wire order wrong: %v", h.Segments)
	}
	active, err := h.Active()
	if err != nil || active != s1 {
		t.Fatalf("active = %v (%v), want s1", active, err)
	}
	final, err := h.Final()
	if err != nil || final != vip {
		t.Fatalf("final = %v (%v), want vip", final, err)
	}
	path := h.Path()
	if path[0] != s1 || path[1] != s2 || path[2] != vip {
		t.Fatalf("path order wrong: %v", path)
	}
}

func TestAdvanceSemantics(t *testing.T) {
	// This is the exact Service Hunting walk of paper figure 1:
	// SYN {c, a}: LB inserts [s1, s2, vip]; s1 refuses → advance → s2;
	// s2 accepts → advance → vip delivered locally.
	h := MustNew(ipv6.ProtoTCP, s1, s2, vip)
	next, err := h.Advance()
	if err != nil || next != s2 {
		t.Fatalf("first advance → %v (%v), want s2", next, err)
	}
	if h.SegmentsLeft != 1 {
		t.Fatalf("SL = %d, want 1", h.SegmentsLeft)
	}
	next, err = h.Advance()
	if err != nil || next != vip {
		t.Fatalf("second advance → %v (%v), want vip", next, err)
	}
	if h.SegmentsLeft != 0 {
		t.Fatalf("SL = %d, want 0", h.SegmentsLeft)
	}
	if _, err := h.Advance(); err != ErrExhausted {
		t.Fatalf("advance past 0 → %v, want ErrExhausted", err)
	}
}

func TestSegmentAtSL(t *testing.T) {
	// SYN-ACK {a, S2, LB, c}: path [s2, lb, client]; LB is active at SL=1
	// and reads the accepting server at SL=2.
	client := ipv6.MustAddr("2001:db8:c::9")
	h := MustNew(ipv6.ProtoTCP, s2, lb, client)
	if _, err := h.Advance(); err != nil { // s2 sends; LB is next
		t.Fatal(err)
	}
	if h.SegmentsLeft != 1 {
		t.Fatalf("SL = %d, want 1", h.SegmentsLeft)
	}
	server, err := h.SegmentAtSL(h.SegmentsLeft + 1)
	if err != nil || server != s2 {
		t.Fatalf("SegmentAtSL = %v (%v), want s2", server, err)
	}
	if _, err := h.SegmentAtSL(99); err != ErrBadSegments {
		t.Fatalf("out-of-range err = %v", err)
	}
}

func TestMarshalParseRoundTrip(t *testing.T) {
	h := MustNew(ipv6.ProtoTCP, s1, s2, vip)
	h.Flags = 0xa5
	h.Tag = 0x1234
	b, err := h.Marshal(nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(b) != h.WireLen() {
		t.Fatalf("wire len %d, want %d", len(b), h.WireLen())
	}
	got, n, err := Parse(b)
	if err != nil {
		t.Fatal(err)
	}
	if n != len(b) {
		t.Fatalf("consumed %d, want %d", n, len(b))
	}
	if got.NextHeader != h.NextHeader || got.SegmentsLeft != h.SegmentsLeft ||
		got.Flags != h.Flags || got.Tag != h.Tag {
		t.Fatalf("fields mismatch: %+v vs %+v", got, h)
	}
	for i := range h.Segments {
		if got.Segments[i] != h.Segments[i] {
			t.Fatalf("segment %d mismatch", i)
		}
	}
}

func TestWireFormatKnownAnswer(t *testing.T) {
	h := MustNew(ipv6.ProtoTCP, s1, vip)
	b, err := h.Marshal(nil)
	if err != nil {
		t.Fatal(err)
	}
	if b[0] != ipv6.ProtoTCP {
		t.Fatalf("next header = %d", b[0])
	}
	if b[1] != 4 { // 2 segments * 16 bytes = 32 = 4 * 8-byte units
		t.Fatalf("hdr ext len = %d, want 4", b[1])
	}
	if b[2] != RoutingType {
		t.Fatalf("routing type = %d", b[2])
	}
	if b[3] != 1 { // SL
		t.Fatalf("SL = %d", b[3])
	}
	if b[4] != 1 { // last entry
		t.Fatalf("last entry = %d", b[4])
	}
	// Segment List[0] must be the FINAL segment (vip).
	want := vip.As16()
	for i := 0; i < 16; i++ {
		if b[8+i] != want[i] {
			t.Fatal("Segment List[0] is not the final segment")
		}
	}
}

func TestParseErrors(t *testing.T) {
	h := MustNew(ipv6.ProtoTCP, s1, s2, vip)
	good, _ := h.Marshal(nil)

	if _, _, err := Parse(good[:7]); err != ErrTooShort {
		t.Fatalf("short: %v", err)
	}
	bad := append([]byte(nil), good...)
	bad[2] = 3 // wrong routing type
	if _, _, err := Parse(bad); err != ErrBadRoutingType {
		t.Fatalf("routing type: %v", err)
	}
	bad = append([]byte(nil), good...)
	bad[1] = 200 // claims more bytes than present
	if _, _, err := Parse(bad); err != ErrTooShort {
		t.Fatalf("truncated list: %v", err)
	}
	bad = append([]byte(nil), good...)
	bad[3] = 17 // SL out of range
	if _, _, err := Parse(bad); err != ErrBadSegments {
		t.Fatalf("SL range: %v", err)
	}
	bad = append([]byte(nil), good...)
	bad[4] = 9 // last entry inconsistent
	if _, _, err := Parse(bad); err != ErrBadLen {
		t.Fatalf("last entry: %v", err)
	}
	// Odd ext len (not multiple of 16 bytes).
	odd := make([]byte, 8+8)
	odd[1] = 1
	odd[2] = RoutingType
	if _, _, err := Parse(odd); err != ErrBadLen {
		t.Fatalf("odd len: %v", err)
	}
	// Zero segments.
	zero := make([]byte, 8)
	zero[2] = RoutingType
	if _, _, err := Parse(zero); err != ErrNoSegments {
		t.Fatalf("zero segments: %v", err)
	}
}

func TestNewErrors(t *testing.T) {
	if _, err := New(ipv6.ProtoTCP); err != ErrNoSegments {
		t.Fatalf("empty: %v", err)
	}
	many := make([]netip.Addr, MaxSegments+1)
	for i := range many {
		many[i] = s1
	}
	if _, err := New(ipv6.ProtoTCP, many...); err != ErrTooMany {
		t.Fatalf("too many: %v", err)
	}
	var zero netip.Addr
	if _, err := New(ipv6.ProtoTCP, s1, zero); err == nil {
		t.Fatal("invalid segment accepted")
	}
}

func TestMarshalErrors(t *testing.T) {
	h := &SRH{Segments: nil}
	if _, err := h.Marshal(nil); err != ErrNoSegments {
		t.Fatalf("empty: %v", err)
	}
	h = &SRH{Segments: []netip.Addr{s1}, SegmentsLeft: 1}
	if _, err := h.Marshal(nil); err != ErrBadSegments {
		t.Fatalf("SL out of range: %v", err)
	}
}

func TestStringMarksActive(t *testing.T) {
	h := MustNew(ipv6.ProtoTCP, s1, s2, vip)
	s := h.String()
	if !strings.Contains(s, "*"+s1.String()) {
		t.Fatalf("String() should mark s1 active: %q", s)
	}
	h.Advance()
	s = h.String()
	if !strings.Contains(s, "*"+s2.String()) {
		t.Fatalf("String() should mark s2 active after advance: %q", s)
	}
}

// TestRoundTripQuick fuzzes path lengths and segment bytes.
func TestRoundTripQuick(t *testing.T) {
	f := func(raw [][16]byte, nh uint8, tag uint16) bool {
		if len(raw) == 0 {
			return true
		}
		if len(raw) > 12 {
			raw = raw[:12]
		}
		path := make([]netip.Addr, len(raw))
		for i, b := range raw {
			b[0] = 0x20 // force plain global unicast (avoid v4-mapped)
			path[i] = netip.AddrFrom16(b)
		}
		h, err := New(nh, path...)
		if err != nil {
			return false
		}
		h.Tag = tag
		wire, err := h.Marshal(nil)
		if err != nil {
			return false
		}
		got, n, err := Parse(wire)
		if err != nil || n != len(wire) {
			return false
		}
		gotPath := got.Path()
		for i := range path {
			if gotPath[i] != path[i] {
				return false
			}
		}
		return got.Tag == tag && got.NextHeader == nh && got.SegmentsLeft == uint8(len(path)-1)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 1000}); err != nil {
		t.Fatal(err)
	}
}

// FuzzSetPathMatchesNew holds SetPath to New for every input: the same
// error, and on success the same header and the same bytes on the wire,
// whatever the reused header held before; on error the header is as it
// was. Input: next header, how dirty the reused header is, then 17 bytes
// per segment — a kind (valid / zero / IPv4-mapped / IPv4 / zoned) and
// the address.
func FuzzSetPathMatchesNew(f *testing.F) {
	seg := func(kind byte, last byte) []byte {
		return append([]byte{kind, 0x20, 0x01, 0x0d, 0xb8}, append(make([]byte, 11), last)...)
	}
	f.Add([]byte{6, 0})
	f.Add(bytes.Join([][]byte{{6, 0}, seg(0, 1), seg(0, 2), seg(0, 3)}, nil))
	f.Add(bytes.Join([][]byte{{6, 5}, seg(0, 1), seg(0, 2)}, nil))
	f.Add(bytes.Join([][]byte{{6, 1}, seg(0, 1), seg(1, 0), seg(0, 3)}, nil))
	f.Add(bytes.Join([][]byte{{17, 2}, seg(2, 9)}, nil))
	f.Add(append([]byte{6, 3}, bytes.Repeat(seg(0, 7), MaxSegments+1)...))
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) < 2 {
			return
		}
		nh, dirty := data[0], int(data[1])%8
		var path []netip.Addr
		for b := data[2:]; len(b) >= 17 && len(path) <= MaxSegments+1; b = b[17:] {
			a := netip.AddrFrom16([16]byte(b[1:17]))
			switch b[0] % 5 {
			case 1:
				a = netip.Addr{}
			case 2:
				a = netip.AddrFrom16([16]byte{10: 0xff, 11: 0xff, 12: b[13], 13: b[14], 14: b[15], 15: b[16]})
			case 3:
				a = netip.AddrFrom4([4]byte(b[13:17]))
			case 4:
				a = a.WithZone("eth0")
			}
			path = append(path, a)
		}
		reused := &SRH{NextHeader: 99, SegmentsLeft: 1, Flags: 0xa5, Tag: 0xbeef}
		for i := 0; i < dirty; i++ {
			reused.Segments = append(reused.Segments, lb)
		}
		before := *reused
		before.Segments = append([]netip.Addr(nil), reused.Segments...)

		want, wantErr := New(nh, path...)
		err := reused.SetPath(nh, path...)
		if (err == nil) != (wantErr == nil) || err != nil && err.Error() != wantErr.Error() {
			t.Fatalf("SetPath error %v, New error %v", err, wantErr)
		}
		if err != nil {
			if !reflect.DeepEqual(*reused, before) {
				t.Fatalf("failed SetPath changed the header: %+v, was %+v", *reused, before)
			}
			return
		}
		if !reflect.DeepEqual(reused, want) {
			t.Fatalf("SetPath built %+v, New built %+v", reused, want)
		}
		got, err1 := reused.Marshal(nil)
		exp, err2 := want.Marshal(nil)
		if err1 != nil || err2 != nil || !bytes.Equal(got, exp) {
			t.Fatalf("wire differs: %x (%v) vs %x (%v)", got, err1, exp, err2)
		}
	})
}

func BenchmarkMarshal3Segments(b *testing.B) {
	h := MustNew(ipv6.ProtoTCP, s1, s2, vip)
	buf := make([]byte, 0, h.WireLen())
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		buf = buf[:0]
		if _, err := h.Marshal(buf); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkParse3Segments(b *testing.B) {
	h := MustNew(ipv6.ProtoTCP, s1, s2, vip)
	buf, _ := h.Marshal(nil)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, _, err := Parse(buf); err != nil {
			b.Fatal(err)
		}
	}
}
