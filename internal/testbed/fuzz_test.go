package testbed

import (
	"math/rand/v2"
	"net/netip"
	"testing"
	"time"

	"srlb/internal/feedback"
	"srlb/internal/selection"
)

// fuzzCursor decodes small bounded integers from fuzz bytes.
type fuzzCursor struct {
	data []byte
	pos  int
}

func (c *fuzzCursor) next(bound int) int {
	if bound <= 0 {
		return 0
	}
	if c.pos >= len(c.data) {
		return 0
	}
	b := c.data[c.pos]
	c.pos++
	return int(b) % bound
}

// decodeFuzzTopology builds a bounded topology (pools, VIPs, lifecycle
// events) from arbitrary bytes. Every numeric field is taken modulo a
// small bound, so the fuzzer explores the schedule/shape space — pool
// references, event targets, rate-relative fractions, dangling names —
// rather than just integer overflow.
func decodeFuzzTopology(data []byte) Topology {
	c := &fuzzCursor{data: data}
	// random-1 selection keeps every ≥1-server pool schedulable, so the
	// only dynamic panic class Validate documents (a pool shrinking below
	// the scheme's k) cannot fire and "Validate == nil → Build and the
	// event schedule run clean" is a checkable invariant.
	scheme := func(servers []netip.Addr, r *rand.Rand, _ *feedback.VIPView) selection.Scheme {
		return selection.NewRandom(servers, 1, r)
	}
	top := Topology{
		Seed:     uint64(c.next(251)),
		Replicas: c.next(3),
		Clients:  c.next(4),
	}
	npools := c.next(4)
	for p := 0; p < npools; p++ {
		name := GenPoolName(c.next(4)) // collisions on purpose
		top.Pools = append(top.Pools, PoolSpec{Name: name, Servers: c.next(5)})
	}
	nvips := c.next(6) + 1
	for v := 0; v < nvips; v++ {
		spec := VIPSpec{Scheme: scheme}
		switch c.next(3) {
		case 0: // implicit pool
			spec.Servers = c.next(5)
		case 1: // reference a (possibly missing) generated pool
			spec.Pool = GenPoolName(c.next(5))
		case 2: // referencing VIP that illegally sets pool fields
			spec.Pool = GenPoolName(c.next(5))
			spec.Servers = c.next(3)
		}
		top.VIPs = append(top.VIPs, spec)
	}
	nevents := c.next(8)
	for e := 0; e < nevents; e++ {
		ev := Event{
			Kind:    EventKind(c.next(7)),
			VIP:     c.next(nvips + 2),
			Server:  c.next(8),
			Replica: c.next(4),
			From:    c.next(4),
		}
		if c.next(2) == 1 {
			ev.Pool = GenPoolName(c.next(5))
		}
		switch c.next(3) {
		case 0:
			ev.At = time.Duration(c.next(1000)) * time.Millisecond
		case 1:
			ev = ev.AtFraction(float64(c.next(11)) / 10)
		case 2: // malformed mixes: both time bases, out-of-range fractions
			ev.At = time.Duration(c.next(100)) * time.Millisecond
			ev.Frac = float64(c.next(30))/10 - 1
			ev.Relative = c.next(2) == 1
		}
		top.Events = append(top.Events, ev)
	}
	return top
}

// FuzzTopologyValidate pins the compiler contract: whatever shape the
// bytes decode to, Validate never panics, and a topology Validate
// accepts must Build and run its whole event schedule without
// panicking. Rejected topologies must keep rejecting after the
// defaulting pass (Validate is documented as defaults-stable).
func FuzzTopologyValidate(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte{2, 1, 3, 0, 2, 3, 1, 0, 4, 2, 1, 1, 0, 50, 1, 2, 5})
	f.Add([]byte{0, 2, 8, 3, 1, 3, 2, 0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13})
	f.Fuzz(func(t *testing.T, data []byte) {
		top := decodeFuzzTopology(data)
		err := top.Validate()
		if err != nil {
			return
		}
		// Accepted: the compile and the full event schedule (fired by the
		// simulator with no traffic) must run clean. Rate-relative
		// schedules are resolved first — Build rejecting unresolved
		// fractions is part of the contract, not a fuzz finding — and
		// ResolveEvents on a Validate-accepted schedule must itself not
		// panic.
		defer func() {
			if r := recover(); r != nil {
				t.Fatalf("Validate accepted a topology whose Build/schedule panics: %v\n%+v", r, top)
			}
		}()
		top.Events = ResolveEvents(top.Events, time.Second)
		tb := Build(top)
		tb.Sim.Run()
	})
}
