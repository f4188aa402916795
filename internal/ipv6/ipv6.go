// Package ipv6 implements a wire-accurate IPv6 fixed header codec
// (RFC 8200 §3) and the address helpers used across the SRLB data plane.
//
// The simulated data center runs this codec on every hop when it
// verifies checksums, and Header.Check, Marshal's address checks, on
// every hop otherwise, so both are on the hot path of all experiments.
package ipv6

import (
	"encoding/binary"
	"errors"
	"fmt"
	"net/netip"
)

// HeaderLen is the length of the fixed IPv6 header in bytes.
const HeaderLen = 40

// Next-header protocol numbers used in this repository.
const (
	ProtoTCP     = 6  // RFC 9293
	ProtoRouting = 43 // Routing extension header (carries the SRH)
	ProtoNone    = 59 // No next header
)

// Version is the IP version encoded in every header.
const Version = 6

// Errors returned by Parse.
var (
	ErrTooShort   = errors.New("ipv6: buffer too short")
	ErrBadVersion = errors.New("ipv6: version is not 6")
	ErrNotV6Addr  = errors.New("ipv6: address is not a plain IPv6 address")
)

// Header is a parsed IPv6 fixed header.
type Header struct {
	TrafficClass uint8
	FlowLabel    uint32 // 20 bits
	PayloadLen   uint16 // length of everything after the fixed header
	NextHeader   uint8
	HopLimit     uint8
	Src, Dst     netip.Addr
}

// CheckAddr validates that a is a plain (non-mapped, non-zone) IPv6
// address usable on the simulated wire.
func CheckAddr(a netip.Addr) error {
	if !a.IsValid() || !a.Is6() || a.Is4In6() || a.Zone() != "" {
		return fmt.Errorf("%w: %v", ErrNotV6Addr, a)
	}
	return nil
}

// Check returns the error Marshal would return for h, nil when it
// encodes.
func (h *Header) Check() error {
	if err := CheckAddr(h.Src); err != nil {
		return fmt.Errorf("src: %w", err)
	}
	if err := CheckAddr(h.Dst); err != nil {
		return fmt.Errorf("dst: %w", err)
	}
	return nil
}

// Marshal appends the 40-byte wire encoding of h to dst and returns the
// extended slice.
func (h *Header) Marshal(dst []byte) ([]byte, error) {
	if err := h.Check(); err != nil {
		return nil, err
	}
	var b [HeaderLen]byte
	b[0] = Version<<4 | h.TrafficClass>>4
	b[1] = h.TrafficClass<<4 | uint8(h.FlowLabel>>16&0x0f)
	binary.BigEndian.PutUint16(b[2:4], uint16(h.FlowLabel&0xffff))
	binary.BigEndian.PutUint16(b[4:6], h.PayloadLen)
	b[6] = h.NextHeader
	b[7] = h.HopLimit
	src := h.Src.As16()
	dst16 := h.Dst.As16()
	copy(b[8:24], src[:])
	copy(b[24:40], dst16[:])
	return append(dst, b[:]...), nil
}

// Parse decodes a fixed header from the front of b and returns the number
// of bytes consumed (always HeaderLen on success).
func Parse(b []byte) (Header, int, error) {
	if len(b) < HeaderLen {
		return Header{}, 0, ErrTooShort
	}
	if b[0]>>4 != Version {
		return Header{}, 0, ErrBadVersion
	}
	var h Header
	h.TrafficClass = b[0]<<4 | b[1]>>4
	h.FlowLabel = uint32(b[1]&0x0f)<<16 | uint32(binary.BigEndian.Uint16(b[2:4]))
	h.PayloadLen = binary.BigEndian.Uint16(b[4:6])
	h.NextHeader = b[6]
	h.HopLimit = b[7]
	h.Src = netip.AddrFrom16([16]byte(b[8:24]))
	h.Dst = netip.AddrFrom16([16]byte(b[24:40]))
	return h, HeaderLen, nil
}

// PseudoHeaderChecksum computes the RFC 8200 §8.1 upper-layer pseudo-header
// partial checksum for the given addresses, upper-layer length and
// protocol. The result is an unfolded 32-bit sum to be combined with the
// payload sum and folded by the caller (see tcpseg.Checksum).
func PseudoHeaderChecksum(src, dst netip.Addr, upperLen uint32, proto uint8) uint32 {
	var sum uint32
	s := src.As16()
	d := dst.As16()
	for i := 0; i < 16; i += 2 {
		sum += uint32(s[i])<<8 | uint32(s[i+1])
		sum += uint32(d[i])<<8 | uint32(d[i+1])
	}
	sum += upperLen >> 16
	sum += upperLen & 0xffff
	sum += uint32(proto)
	return sum
}

// FoldChecksum folds a 32-bit ones-complement accumulator into the final
// 16-bit checksum value.
func FoldChecksum(sum uint32) uint16 {
	for sum>>16 != 0 {
		sum = sum&0xffff + sum>>16
	}
	return ^uint16(sum)
}

// SumBytes accumulates b into a ones-complement 32-bit sum (big-endian
// 16-bit words; odd trailing byte padded with zero).
func SumBytes(sum uint32, b []byte) uint32 {
	n := len(b) &^ 1
	for i := 0; i < n; i += 2 {
		sum += uint32(b[i])<<8 | uint32(b[i+1])
	}
	if len(b)&1 != 0 {
		sum += uint32(b[len(b)-1]) << 8
	}
	return sum
}

// MustAddr parses a literal IPv6 address, panicking on error. For tests
// and tables of well-known addresses.
func MustAddr(s string) netip.Addr {
	a := netip.MustParseAddr(s)
	if err := CheckAddr(a); err != nil {
		panic(err)
	}
	return a
}
