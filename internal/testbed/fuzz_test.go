package testbed

import (
	"math"
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
// events and their span) from arbitrary bytes. Every numeric field is
// taken modulo a small bound, so the fuzzer explores the schedule/shape
// space — pool indexes in and out of range, event targets, fractions in
// and out of [0, 1], spans that are not positive — rather than just
// integer overflow.
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
		Span:     time.Duration(c.next(5)-1) * 500 * time.Millisecond, // -0.5 s to 1.5 s
	}
	npools := c.next(4)
	for p := 0; p < npools; p++ {
		top.Pools = append(top.Pools, PoolSpec{Servers: c.next(5)})
	}
	// Pool indexes span [-1, len(Pools)+1]: one below the range, the
	// valid ones (an empty Pools means one default pool), two past it.
	pools := max(npools, 1)
	pool := func() int { return c.next(pools+3) - 1 }
	nvips := c.next(6) + 1
	for v := 0; v < nvips; v++ {
		top.VIPs = append(top.VIPs, VIPSpec{Scheme: scheme, Pool: pool()})
	}
	nevents := c.next(8)
	for e := 0; e < nevents; e++ {
		ev := Event{
			Kind:    EventKind(c.next(7)),
			Pool:    pool(),
			Server:  c.next(8),
			Replica: c.next(4),
			From:    c.next(4),
		}
		switch c.next(3) {
		case 0:
			ev.Frac = float64(c.next(11)) / 10
		case 1: // -1 to 1.9, mostly out of range
			ev.Frac = float64(c.next(30))/10 - 1
		case 2: // a fraction no comparison orders
			ev.Frac = math.NaN()
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
	// Valid: two replicas, a 4-server pool, and an add, a drain and a
	// replica fail at 0.3, 0.5 and 0.7 of a 1 s span.
	f.Add([]byte{7, 2, 1, 3, 1, 4, 0, 1, 3, 1, 1, 0, 0, 0, 0, 3, 2, 1, 2, 0, 0, 0, 5, 4, 1, 0, 1, 0, 0, 7})
	f.Fuzz(func(t *testing.T, data []byte) {
		top := decodeFuzzTopology(data)
		err := top.Validate()
		if err != nil {
			return
		}
		// Accepted: the compile and the full event schedule (fired by the
		// simulator with no traffic) must run clean.
		defer func() {
			if r := recover(); r != nil {
				t.Fatalf("Validate accepted a topology whose Build/schedule panics: %v\n%+v", r, top)
			}
		}()
		tb := Build(top)
		tb.Sim.Run()
	})
}
