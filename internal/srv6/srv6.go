// Package srv6 implements the IPv6 Segment Routing Header (SRH) defined in
// RFC 8754, plus the segment-list semantics SRLB's Service Hunting relies
// on (§II of the paper).
//
// Wire layout (RFC 8754 §2):
//
//	 0                   1                   2                   3
//	 0 1 2 3 4 5 6 7 8 9 0 1 2 3 4 5 6 7 8 9 0 1 2 3 4 5 6 7 8 9 0 1
//	+-+-+-+-+-+-+-+-+-+-+-+-+-+-+-+-+-+-+-+-+-+-+-+-+-+-+-+-+-+-+-+-+
//	| Next Header   |  Hdr Ext Len  | Routing Type  | Segments Left |
//	+-+-+-+-+-+-+-+-+-+-+-+-+-+-+-+-+-+-+-+-+-+-+-+-+-+-+-+-+-+-+-+-+
//	|  Last Entry   |     Flags     |              Tag              |
//	+-+-+-+-+-+-+-+-+-+-+-+-+-+-+-+-+-+-+-+-+-+-+-+-+-+-+-+-+-+-+-+-+
//	|            Segment List[0] … Segment List[n] (128 bits each)  |
//	+-+-+-+-+-+-+-+-+-+-+-+-+-+-+-+-+-+-+-+-+-+-+-+-+-+-+-+-+-+-+-+-+
//
// Segment List[0] is the LAST segment of the path; the list is encoded in
// reverse path order. SegmentsLeft indexes the active segment: the active
// segment is Segment List[SegmentsLeft], and "advancing" decrements
// SegmentsLeft. This package stores the list in wire order and offers
// path-order constructors/accessors so calling code reads like the paper.
package srv6

import (
	"errors"
	"fmt"
	"net/netip"
	"strings"

	"srlb/internal/ipv6"
)

// RoutingType is the IANA routing type for the SRH.
const RoutingType = 4

// MaxSegments is a sanity bound on list length (HdrExtLen is 8 bits:
// 255*8 bytes ≈ 127 segments).
const MaxSegments = 127

// Errors returned by Parse, ParseInto, Check and Marshal.
var (
	ErrTooShort       = errors.New("srv6: buffer too short")
	ErrBadRoutingType = errors.New("srv6: routing type is not SRH (4)")
	ErrBadLen         = errors.New("srv6: header length does not match segment list")
	ErrBadSegments    = errors.New("srv6: SegmentsLeft/LastEntry out of range")
	ErrNoSegments     = errors.New("srv6: empty segment list")
	ErrTooMany        = errors.New("srv6: too many segments")
	ErrExhausted      = errors.New("srv6: segment list exhausted")
)

// SRH is a Segment Routing Header. Segments is stored in WIRE order:
// Segments[0] is the final segment of the path.
type SRH struct {
	NextHeader   uint8
	SegmentsLeft uint8
	Flags        uint8
	Tag          uint16
	Segments     []netip.Addr
}

// New builds an SRH for a path traversed in the given order
// (pathSegments[0] is visited first). SegmentsLeft is initialized to
// len(path)-1, i.e. the first segment is active and the IPv6 destination
// address should be set to it by the caller.
func New(nextHeader uint8, pathSegments ...netip.Addr) (*SRH, error) {
	if len(pathSegments) == 0 {
		return nil, ErrNoSegments
	}
	if len(pathSegments) > MaxSegments {
		return nil, ErrTooMany
	}
	segs := make([]netip.Addr, len(pathSegments))
	for i, s := range pathSegments {
		if err := ipv6.CheckAddr(s); err != nil {
			return nil, fmt.Errorf("srv6: segment %d: %w", i, err)
		}
		segs[len(pathSegments)-1-i] = s
	}
	return &SRH{
		NextHeader:   nextHeader,
		SegmentsLeft: uint8(len(pathSegments) - 1),
		Segments:     segs,
	}, nil
}

// MustNew is New, panicking on error (for tests and static tables).
func MustNew(nextHeader uint8, pathSegments ...netip.Addr) *SRH {
	h, err := New(nextHeader, pathSegments...)
	if err != nil {
		panic(err)
	}
	return h
}

// SetPath is New into a header the caller owns: the same checks, the same
// errors and the same resulting header (Flags and Tag zero), with
// h.Segments' backing array reused when it is large enough — so a sender
// that keeps one SRH and serialises it before the next SetPath builds
// headers without allocating. On error h is left untouched.
func (h *SRH) SetPath(nextHeader uint8, pathSegments ...netip.Addr) error {
	n := len(pathSegments)
	if n == 0 {
		return ErrNoSegments
	}
	if n > MaxSegments {
		return ErrTooMany
	}
	for i, s := range pathSegments {
		if err := ipv6.CheckAddr(s); err != nil {
			return fmt.Errorf("srv6: segment %d: %w", i, err)
		}
	}
	segs := h.Segments
	if cap(segs) < n {
		segs = make([]netip.Addr, n)
	}
	segs = segs[:n]
	for i, s := range pathSegments {
		segs[n-1-i] = s
	}
	*h = SRH{NextHeader: nextHeader, SegmentsLeft: uint8(n - 1), Segments: segs}
	return nil
}

// LastEntry returns the Last Entry field value (index of the last element
// of the segment list).
func (h *SRH) LastEntry() uint8 {
	if len(h.Segments) == 0 {
		return 0
	}
	return uint8(len(h.Segments) - 1)
}

// WireLen returns the marshaled size in bytes: 8 + 16*len(Segments).
func (h *SRH) WireLen() int { return 8 + 16*len(h.Segments) }

// Active returns the active segment, Segments[SegmentsLeft]. The IPv6
// destination address of a packet carrying this SRH equals the active
// segment while in flight.
func (h *SRH) Active() (netip.Addr, error) {
	if int(h.SegmentsLeft) >= len(h.Segments) {
		return netip.Addr{}, ErrBadSegments
	}
	return h.Segments[h.SegmentsLeft], nil
}

// Advance decrements SegmentsLeft and returns the new active segment —
// the RFC 8754 "Upper-Layer Header or SL=0" transition is reported as
// ErrExhausted when SegmentsLeft is already 0.
func (h *SRH) Advance() (netip.Addr, error) {
	if h.SegmentsLeft == 0 {
		return netip.Addr{}, ErrExhausted
	}
	h.SegmentsLeft--
	return h.Segments[h.SegmentsLeft], nil
}

// Final returns the last segment of the path (Segments[0] on the wire) —
// for SRLB this is the VIP on client→server packets.
func (h *SRH) Final() (netip.Addr, error) {
	if len(h.Segments) == 0 {
		return netip.Addr{}, ErrNoSegments
	}
	return h.Segments[0], nil
}

// Path returns the segment list in path (visit) order.
func (h *SRH) Path() []netip.Addr {
	out := make([]netip.Addr, len(h.Segments))
	for i, s := range h.Segments {
		out[len(h.Segments)-1-i] = s
	}
	return out
}

// SegmentAtSL returns the segment at a given SegmentsLeft value. This is
// how the SRLB load balancer reads "who accepted" from a SYN-ACK: the
// accepting server places its own address one position behind the LB's
// active segment (paper figure 1: SYN-ACK {a, S2, LB, c}).
func (h *SRH) SegmentAtSL(sl uint8) (netip.Addr, error) {
	if int(sl) >= len(h.Segments) {
		return netip.Addr{}, ErrBadSegments
	}
	return h.Segments[sl], nil
}

// String renders the SRH in path order with the active segment marked.
func (h *SRH) String() string {
	var b strings.Builder
	b.WriteString("SRH[")
	path := h.Path()
	activeIdx := len(h.Segments) - 1 - int(h.SegmentsLeft)
	for i, s := range path {
		if i > 0 {
			b.WriteString(" -> ")
		}
		if i == activeIdx {
			b.WriteString("*")
		}
		b.WriteString(s.String())
	}
	fmt.Fprintf(&b, "] SL=%d", h.SegmentsLeft)
	return b.String()
}

// Check returns the error Marshal would return for h, nil when it
// encodes.
func (h *SRH) Check() error {
	n := len(h.Segments)
	if n == 0 {
		return ErrNoSegments
	}
	if n > MaxSegments {
		return ErrTooMany
	}
	if int(h.SegmentsLeft) >= n {
		return ErrBadSegments
	}
	for i, s := range h.Segments {
		if err := ipv6.CheckAddr(s); err != nil {
			return fmt.Errorf("srv6: segment %d: %w", i, err)
		}
	}
	return nil
}

// Marshal appends the wire encoding of h to dst.
func (h *SRH) Marshal(dst []byte) ([]byte, error) {
	if err := h.Check(); err != nil {
		return nil, err
	}
	n := len(h.Segments)
	hdr := [8]byte{
		h.NextHeader,
		uint8(2 * n), // Hdr Ext Len in 8-byte units, excluding first 8 bytes
		RoutingType,
		h.SegmentsLeft,
		uint8(n - 1), // Last Entry
		h.Flags,
		uint8(h.Tag >> 8), uint8(h.Tag),
	}
	dst = append(dst, hdr[:]...)
	for _, s := range h.Segments {
		a := s.As16()
		dst = append(dst, a[:]...)
	}
	return dst, nil
}

// Parse decodes an SRH from the front of b, returning the header and the
// number of bytes consumed.
func Parse(b []byte) (*SRH, int, error) {
	h := new(SRH)
	n, err := ParseInto(h, b)
	if err != nil {
		return nil, 0, err
	}
	return h, n, nil
}

// ParseInto is Parse into a caller-provided header: every field of h is
// overwritten and h.Segments' backing array is reused when it is large
// enough, so a receiver that keeps one SRH per delivery slot decodes
// without allocating. On error h is left untouched.
func ParseInto(h *SRH, b []byte) (int, error) {
	if len(b) < 8 {
		return 0, ErrTooShort
	}
	if b[2] != RoutingType {
		return 0, ErrBadRoutingType
	}
	extLen := int(b[1]) * 8
	total := 8 + extLen
	if len(b) < total {
		return 0, ErrTooShort
	}
	if extLen%16 != 0 {
		return 0, ErrBadLen
	}
	n := extLen / 16
	if n == 0 {
		return 0, ErrNoSegments
	}
	lastEntry := int(b[4])
	if lastEntry != n-1 {
		return 0, ErrBadLen
	}
	sl := b[3]
	if int(sl) >= n {
		return 0, ErrBadSegments
	}
	h.NextHeader = b[0]
	h.SegmentsLeft = sl
	h.Flags = b[5]
	h.Tag = uint16(b[6])<<8 | uint16(b[7])
	if cap(h.Segments) < n {
		h.Segments = make([]netip.Addr, n)
	}
	h.Segments = h.Segments[:n]
	for i := range h.Segments {
		off := 8 + 16*i
		h.Segments[i] = netip.AddrFrom16([16]byte(b[off : off+16]))
	}
	return total, nil
}
