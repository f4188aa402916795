// Package selection implements the load balancer's server-selection
// policies (§II-B of the paper): given a new flow, produce the ordered
// list of candidate servers to place in the SR header.
//
// The paper's experiments use two servers "chosen at random from among all
// servers hosting a given application instance" (citing Mitzenmacher's
// power-of-two-choices result that more than two candidates has decreasing
// marginal benefit); §II-B also names consistent hashing as an alternative
// scheme, which is provided here via the Maglev table.
package selection

import (
	"fmt"
	"math/rand/v2"
	"net/netip"

	"srlb/internal/chash"
	"srlb/internal/packet"
)

// Scheme produces candidate lists for new flows. Implementations are not
// safe for concurrent use (the simulator is single-threaded; the live
// runtime serializes through the LB lock).
type Scheme interface {
	// Pick returns the ordered candidate servers for the flow. The last
	// candidate is the "must accept" penultimate segment. The slice is
	// the scheme's own scratch, valid until the next Pick (or Resteer) on
	// the same scheme: read it at once, as the LB does when it copies the
	// candidates into the SRH, and copy it to keep it.
	Pick(flow packet.FlowKey) []netip.Addr
	// Name returns the scheme's display name.
	Name() string
}

// Random picks K distinct servers uniformly at random — the paper's
// scheme, with K=2 as evaluated.
type Random struct {
	servers []netip.Addr // the caller's list, shared and never written
	perm    []int32      // servers' indices in the order the shuffles left them
	out     []netip.Addr // Pick's result, k long
	buf     [2]netip.Addr
	rng     *rand.Rand
}

// scratch returns a k-long Pick result: buf itself when k fits, so a
// scheme of the paper's k = 2 costs its construction no array for it
// (the 10,000-VIP rigs build a scheme per VIP).
func scratch(buf *[2]netip.Addr, k int) []netip.Addr {
	if k <= len(buf) {
		return buf[:k]
	}
	return make([]netip.Addr, k)
}

// NewRandom builds a random scheme over the given servers, which it keeps
// and reads on every Pick: the caller never writes them afterwards. It
// panics when k < 1 or fewer than k servers exist: the testbed topology
// is static and this is a construction-time error.
func NewRandom(servers []netip.Addr, k int, rng *rand.Rand) *Random {
	if k < 1 {
		panic(fmt.Sprintf("selection: k must be ≥ 1, got %d", k))
	}
	if len(servers) < k {
		panic(fmt.Sprintf("selection: need at least %d servers, have %d", k, len(servers)))
	}
	r := &Random{servers: servers, perm: make([]int32, len(servers)), rng: rng}
	for i := range r.perm {
		r.perm[i] = int32(i)
	}
	r.out = scratch(&r.buf, k)
	return r
}

// Pick implements Scheme via a partial Fisher–Yates shuffle of perm:
// O(k) time, k distinct servers, each k-subset ordered uniformly. The
// permutation is left in place between calls, which does not bias later
// draws (a partial shuffle of any fixed permutation of the set is still
// uniform). The result holds the servers its prefix names, never the
// prefix: WeightedLeastLoad reorders what it is handed, and reordering
// the permutation would change every later draw.
func (r *Random) Pick(packet.FlowKey) []netip.Addr {
	n := len(r.perm)
	for i := range r.out {
		j := i + r.rng.IntN(n-i)
		r.perm[i], r.perm[j] = r.perm[j], r.perm[i]
		r.out[i] = r.servers[r.perm[i]]
	}
	return r.out
}

// Name implements Scheme.
func (r *Random) Name() string {
	if len(r.out) == 1 {
		return "random1"
	}
	return fmt.Sprintf("random%d", len(r.out))
}

// RoundRobin cycles deterministically through the servers, emitting K
// consecutive servers per flow. Deterministic and stateless across
// restarts given the same arrival order; mainly a comparison baseline.
type RoundRobin struct {
	servers []netip.Addr // as Random's
	out     []netip.Addr
	buf     [2]netip.Addr
	next    int
}

// NewRoundRobin builds a round-robin scheme. Like NewRandom, it keeps
// servers, which the caller must never write afterwards.
func NewRoundRobin(servers []netip.Addr, k int) *RoundRobin {
	if k < 1 || len(servers) < k {
		panic("selection: bad round-robin parameters")
	}
	r := &RoundRobin{servers: servers}
	r.out = scratch(&r.buf, k)
	return r
}

// Pick implements Scheme.
func (r *RoundRobin) Pick(packet.FlowKey) []netip.Addr {
	for i := range r.out {
		r.out[i] = r.servers[(r.next+i)%len(r.servers)]
	}
	r.next = (r.next + 1) % len(r.servers)
	return r.out
}

// Name implements Scheme.
func (r *RoundRobin) Name() string { return fmt.Sprintf("roundrobin%d", len(r.out)) }

// ConsistentHash picks two candidates from a Maglev table keyed on the
// flow 4-tuple, so the same client flow always hunts the same pair —
// useful when multiple LB instances must agree without shared state
// (the Maglev/Ananta deployment model in the paper's related work).
type ConsistentHash struct {
	table  *chash.Maglev
	byName map[string]netip.Addr
	out    [2]netip.Addr // Pick's result
}

// NewConsistentHash builds the scheme over the servers. The Maglev
// table is interned by (servers, tableSize): thousands of VIPs sharing
// one pool populate a single shared table instead of one each, keeping
// control-plane construction O(pools), not O(VIPs).
func NewConsistentHash(servers []netip.Addr, tableSize int) (*ConsistentHash, error) {
	names := make([]string, len(servers))
	byName := make(map[string]netip.Addr, len(servers))
	for i, s := range servers {
		names[i] = s.String()
		byName[names[i]] = s
	}
	m, err := chash.SharedMaglev(names, tableSize)
	if err != nil {
		return nil, err
	}
	return &ConsistentHash{table: m, byName: byName}, nil
}

// Pick implements Scheme.
func (c *ConsistentHash) Pick(flow packet.FlowKey) []netip.Addr {
	a, b := c.table.Lookup2(flow.String())
	c.out[0], c.out[1] = c.byName[a], c.byName[b]
	if a == b {
		return c.out[:1]
	}
	return c.out[:]
}

// Name implements Scheme.
func (c *ConsistentHash) Name() string { return "chash2" }

// Interface compliance checks.
var (
	_ Scheme = (*Random)(nil)
	_ Scheme = (*RoundRobin)(nil)
	_ Scheme = (*ConsistentHash)(nil)
)
