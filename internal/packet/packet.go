// Package packet composes full SRLB data-plane packets:
// IPv6 fixed header, optional Segment Routing Header, and a TCP segment.
// Marshal and Parse/ParseInto are the wire codec a software router (the
// paper uses VPP) executes; the simulated network runs them on every hop
// when it verifies checksums. By default it runs Check and CopyInto
// instead: Marshal's checks and header fix-ups, then a copy equal field
// for field to what parsing the marshaled bytes would give — the way a
// data plane rewrites the buffer it was handed rather than re-serialising
// it.
package packet

import (
	"errors"
	"fmt"
	"math"
	"net/netip"

	"srlb/internal/ipv6"
	"srlb/internal/srv6"
	"srlb/internal/tcpseg"
)

// DefaultHopLimit is used for locally originated packets.
const DefaultHopLimit = 64

// ErrNotTCP is returned when the chain does not terminate in TCP.
var ErrNotTCP = errors.New("packet: upper layer is not TCP")

// ErrTooLong is returned by Marshal when the routing header and the TCP
// segment together exceed the 65,535 bytes IPv6's 16-bit Payload Length
// can express.
var ErrTooLong = errors.New("packet: IPv6 payload longer than 65535 bytes")

// Packet is a parsed (or to-be-marshaled) IPv6[+SRH]+TCP packet.
type Packet struct {
	IP  ipv6.Header
	SRH *srv6.SRH // nil when no routing header present
	TCP tcpseg.Segment
}

// FlowKey identifies a TCP connection by its 4-tuple as seen by the load
// balancer (client address/port, VIP address/port).
type FlowKey struct {
	Src, Dst         netip.Addr
	SrcPort, DstPort uint16
}

// String renders the key as "src.port->dst.port".
func (k FlowKey) String() string {
	return fmt.Sprintf("[%v]:%d->[%v]:%d", k.Src, k.SrcPort, k.Dst, k.DstPort)
}

// Reverse returns the key of the opposite direction.
func (k FlowKey) Reverse() FlowKey {
	return FlowKey{Src: k.Dst, Dst: k.Src, SrcPort: k.DstPort, DstPort: k.SrcPort}
}

// Flow returns the packet's flow key using the *logical* endpoints: when
// an SRH is present, the logical destination is the final segment (the
// VIP), not the in-flight IPv6 destination (which points at the active
// segment). This is how the LB and servers key their flow state.
func (p *Packet) Flow() FlowKey {
	dst := p.IP.Dst
	if p.SRH != nil {
		if final, err := p.SRH.Final(); err == nil {
			dst = final
		}
	}
	return FlowKey{Src: p.IP.Src, Dst: dst, SrcPort: p.TCP.SrcPort, DstPort: p.TCP.DstPort}
}

// IsSYN reports whether this is an initial SYN (SYN set, ACK clear) — the
// packet that triggers Service Hunting at the load balancer.
func (p *Packet) IsSYN() bool {
	return p.TCP.Flags.Has(tcpseg.FlagSYN) && !p.TCP.Flags.Has(tcpseg.FlagACK)
}

// IsSYNACK reports whether this is a connection-acceptance packet.
func (p *Packet) IsSYNACK() bool {
	return p.TCP.Flags.Has(tcpseg.FlagSYN | tcpseg.FlagACK)
}

// Marshal encodes the full packet to bytes, fixing up PayloadLen and the
// TCP checksum. The checksum is computed over the logical endpoints
// (IPv6 source and final-segment destination), mirroring how SR-aware
// stacks compute upper-layer checksums against the final destination
// (RFC 8200 §8.1).
func (p *Packet) Marshal(dst []byte) ([]byte, error) {
	if err := p.fixUp(); err != nil {
		return nil, err
	}
	out, err := p.IP.Marshal(dst)
	if err != nil {
		return nil, err
	}
	ulDst := p.IP.Dst
	if p.SRH != nil {
		out, err = p.SRH.Marshal(out)
		if err != nil {
			return nil, err
		}
		if final, err := p.SRH.Final(); err == nil {
			ulDst = final
		}
	}
	return p.TCP.Marshal(out, p.IP.Src, ulDst)
}

// Check is Marshal without the bytes: it applies the same header fix-ups
// to p and returns the error Marshal would return, nil when p encodes.
// (The TCP codec checks only addresses the IPv6 header and the segment
// list already carry, so its check cannot fail once theirs pass.)
func (p *Packet) Check() error {
	if err := p.fixUp(); err != nil {
		return err
	}
	if err := p.IP.Check(); err != nil {
		return err
	}
	if p.SRH != nil {
		return p.SRH.Check()
	}
	return nil
}

// fixUp sets the header fields Marshal derives — the next-header chain,
// PayloadLen, a default hop limit — or reports that PayloadLen cannot
// express the packet, leaving p untouched.
func (p *Packet) fixUp() error {
	n := p.WireLen() - ipv6.HeaderLen
	if n > math.MaxUint16 {
		return fmt.Errorf("%w: %d", ErrTooLong, n)
	}
	p.IP.PayloadLen = uint16(n)
	p.IP.NextHeader = ipv6.ProtoTCP
	if p.SRH != nil {
		p.IP.NextHeader = ipv6.ProtoRouting
		p.SRH.NextHeader = ipv6.ProtoTCP
	}
	if p.IP.HopLimit == 0 {
		p.IP.HopLimit = DefaultHopLimit
	}
	return nil
}

// WireLen returns the length in bytes of p's wire form.
func (p *Packet) WireLen() int {
	n := ipv6.HeaderLen + p.TCP.WireLen()
	if p.SRH != nil {
		n += p.SRH.WireLen()
	}
	return n
}

// Parse decodes a full packet. When verifyChecksum is true, the TCP
// checksum is validated against the logical endpoints.
func Parse(b []byte, verifyChecksum bool) (*Packet, error) {
	p := new(Packet)
	if err := ParseInto(p, b, verifyChecksum); err != nil {
		return nil, err
	}
	return p, nil
}

// ParseInto is Parse into a caller-provided Packet, overwriting every
// field — the allocation-free path for callers (netsim delivery) that
// recycle Packet structs. A routing header is decoded into the SRH that
// p.SRH points at on entry, overwriting whatever that header held (one is
// allocated only when p.SRH is nil); a wire without one leaves p.SRH nil.
// So a caller that recycles p owns the SRH storage too: nothing parsed
// earlier through the same pointer survives the call — Clone to keep it.
// On error p is left in an undefined state.
func ParseInto(p *Packet, b []byte, verifyChecksum bool) error {
	srh := p.SRH
	p.SRH = nil
	h, n, err := ipv6.Parse(b)
	if err != nil {
		return err
	}
	p.IP = h
	rest := b[n:]
	if int(h.PayloadLen) > len(rest) {
		return fmt.Errorf("packet: payload length %d exceeds buffer %d", h.PayloadLen, len(rest))
	}
	rest = rest[:h.PayloadLen]
	next := h.NextHeader
	if next == ipv6.ProtoRouting {
		if srh == nil {
			srh = new(srv6.SRH)
		}
		consumed, err := srv6.ParseInto(srh, rest)
		if err != nil {
			return err
		}
		p.SRH = srh
		rest = rest[consumed:]
		next = srh.NextHeader
	}
	if next != ipv6.ProtoTCP {
		return fmt.Errorf("%w: next header %d", ErrNotTCP, next)
	}
	ulDst := p.IP.Dst
	if p.SRH != nil {
		if final, err := p.SRH.Final(); err == nil {
			ulDst = final
		}
	}
	seg, err := tcpseg.Parse(rest, p.IP.Src, ulDst, verifyChecksum)
	if err != nil {
		return err
	}
	p.TCP = seg
	return nil
}

// CopyInto makes q what ParseInto(q, wire, false) makes it, where wire
// is p marshaled, without the bytes. p must have passed Check, which
// applies Marshal's header fix-ups; the Flow Label is cut to the 20 bits
// the wire carries, and the payload is never nil, as a parsed one is not.
// q's storage is used as ParseInto uses it: the routing header is copied
// into the SRH q.SRH points at on entry (allocated only when nil; q.SRH
// is left nil when p has none), the payload into q.TCP.Payload's backing
// array when that is large enough. Nothing of p is aliased, so its sender
// may rewrite p, its header and its payload once CopyInto returns.
func CopyInto(q, p *Packet) {
	srh := q.SRH
	q.SRH = nil
	if p.SRH != nil {
		if srh == nil {
			srh = new(srv6.SRH)
		}
		segs := append(srh.Segments[:0], p.SRH.Segments...)
		*srh = *p.SRH
		srh.Segments = segs
		q.SRH = srh
	}
	q.IP = p.IP
	q.IP.FlowLabel &= 1<<20 - 1
	payload := append(q.TCP.Payload[:0], p.TCP.Payload...)
	if payload == nil {
		payload = []byte{}
	}
	q.TCP = p.TCP
	q.TCP.Payload = payload
}

// Clone deep-copies the packet (segment list and payload included) so a
// hop can mutate its copy without aliasing.
func (p *Packet) Clone() *Packet {
	q := *p
	if p.SRH != nil {
		srh := *p.SRH
		srh.Segments = append([]netip.Addr(nil), p.SRH.Segments...)
		q.SRH = &srh
	}
	q.TCP.Payload = append([]byte(nil), p.TCP.Payload...)
	return &q
}

// String gives a compact one-line rendering for traces and debugging.
func (p *Packet) String() string {
	srh := ""
	if p.SRH != nil {
		srh = " " + p.SRH.String()
	}
	return fmt.Sprintf("[%v]->[%v] %s%s len=%d",
		p.IP.Src, p.IP.Dst, p.TCP.Flags, srh, len(p.TCP.Payload))
}
