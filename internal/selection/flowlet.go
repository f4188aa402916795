package selection

import (
	"math/rand/v2"
	"net/netip"
	"time"

	"srlb/internal/packet"
)

// DefaultFlowletGap is the idle gap that opens a new flowlet. 50ms sits
// above the testbed's intra-burst packet spacing (one RTT of ~200µs
// between SYN-ACK and request) and below the think/service gaps that
// separate a connection's bursts, so flowlet boundaries land between
// application-level exchanges — the safe re-steering points.
const DefaultFlowletGap = 50 * time.Millisecond

// Flowlet re-steers established flows at flowlet-gap boundaries instead
// of pinning the SYN-time decision for the connection's lifetime
// (Nakamura-style host-driven SRv6 re-steering, adapted to the LB).
//
// Placement at SYN time is deliberately load-oblivious (the same
// power-of-two random draw as the paper's scheme), isolating the
// flowlet mechanism in the policy ablation: any gain over random2 comes
// from moving flows mid-connection, not from smarter initial placement.
// When a steered packet arrives after an idle gap longer than Gap, the
// flow is between bursts — in-flight-packet reordering is impossible —
// so the scheme may rebind it: it draws two fresh candidates, compares
// their reported load against the current server's, and moves the flow
// to a strictly less-loaded candidate. Any stale report (current or
// candidate) vetoes the move — with no trustworthy load signal the
// scheme degrades to ordinary sticky steering.
type Flowlet struct {
	gap   time.Duration
	inner *Random
	rng   *rand.Rand
	view  LoadView
	// inflight mirrors WeightedLeastLoad's local delta.
	inflight map[netip.Addr]int
}

// NewFlowlet builds the scheme. gap ≤ 0 takes DefaultFlowletGap; view
// may be nil, in which case flows never move (with no load signal
// there is no reason to re-steer).
// Construction consumes no randomness.
func NewFlowlet(servers []netip.Addr, gap time.Duration, rng *rand.Rand, view LoadView) *Flowlet {
	if gap <= 0 {
		gap = DefaultFlowletGap
	}
	f := &Flowlet{
		gap:      gap,
		rng:      rng,
		view:     view,
		inflight: make(map[netip.Addr]int),
	}
	f.Update(servers)
	return f
}

// Gap returns the configured flowlet gap.
func (f *Flowlet) Gap() time.Duration { return f.gap }

// Pick implements Scheme: plain power-of-two random placement.
func (f *Flowlet) Pick(flow packet.FlowKey) []netip.Addr {
	return f.inner.Pick(flow)
}

// Name implements Scheme.
func (f *Flowlet) Name() string { return "flowlet" }

// Boundary reports whether a packet arriving after the given idle gap
// opens a new flowlet. Strictly greater: a packet exactly gap after its
// predecessor still belongs to the same flowlet, so fuzzed gap
// sequences can never produce two flowlets sharing an instant.
func (f *Flowlet) Boundary(idle time.Duration) bool { return idle > f.gap }

// Resteer implements Resteerer. Called by the LB for every eligible
// steered packet; intra-flowlet packets (idle ≤ gap) never move — the
// first invariant FuzzFlowletGaps locks — and boundary packets move
// only onto a strictly less-loaded, fresh-reported candidate.
func (f *Flowlet) Resteer(now time.Duration, flow packet.FlowKey, idle time.Duration, current netip.Addr) (netip.Addr, bool) {
	if !f.Boundary(idle) {
		return current, false
	}
	if f.view == nil {
		return current, false
	}
	// The candidate draw happens on every boundary (before the
	// freshness checks) so the rng stream depends only on the packet
	// sequence, not on report timing.
	cands := f.inner.Pick(flow)
	curLoad, fresh := f.view.ServerLoad(current)
	if !fresh {
		return current, false
	}
	best, bestScore := current, curLoad+DefaultInflightWeight*float64(f.inflight[current])
	for _, c := range cands {
		if c == current {
			continue
		}
		load, fresh := f.view.ServerLoad(c)
		if !fresh {
			return current, false
		}
		if score := load + DefaultInflightWeight*float64(f.inflight[c]); score < bestScore {
			best, bestScore = c, score
		}
	}
	if best == current {
		return current, false
	}
	return best, true
}

// Observe implements Stateful (same advisory in-flight tracking as
// WeightedLeastLoad).
func (f *Flowlet) Observe(server netip.Addr, delta int) {
	n := f.inflight[server] + delta
	if n <= 0 {
		delete(f.inflight, server)
		return
	}
	f.inflight[server] = n
}

// Update implements Stateful: swap the candidate set without losing
// in-flight state or consuming randomness.
func (f *Flowlet) Update(servers []netip.Addr) {
	k := 2
	if len(servers) < k {
		k = len(servers)
	}
	f.inner = NewRandom(servers, k, f.rng)
	if len(f.inflight) > 0 {
		keep := make(map[netip.Addr]bool, len(servers))
		for _, s := range servers {
			keep[s] = true
		}
		for s := range f.inflight {
			if !keep[s] {
				delete(f.inflight, s)
			}
		}
	}
}

var (
	_ Stateful  = (*Flowlet)(nil)
	_ Resteerer = (*Flowlet)(nil)
)
