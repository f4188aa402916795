package selection

import (
	"fmt"
	"math/rand/v2"
	"net/netip"

	"srlb/internal/packet"
)

// DefaultInflightWeight converts one locally-observed in-flight flow
// into load-score units when re-ranking candidates. Reports lag by up
// to the feedback interval, so flows this LB placed since the last
// report are load the score has not seen yet; with the testbed's
// 16-worker servers one admitted flow occupies about 1/16 of a worker
// pool, and the weight is kept slightly below that so the published
// EWMA stays the dominant signal.
const DefaultInflightWeight = 0.05

// WeightedLeastLoad is the Charon-style load-aware policy: candidates
// are still drawn power-of-two-choices at random (preserving the
// paper's churn resilience — the candidate set never collapses onto one
// "best" server), but the ordered list handed to Service Hunting is
// re-ranked by reported load, so the hunt offers the connection to the
// least-loaded candidate first. When any candidate's report is stale
// the original random order is kept — the scheme degrades to exactly
// the paper's random2.
type WeightedLeastLoad struct {
	k     int
	inner *Random
	rng   *rand.Rand
	view  LoadView
	// inflight counts this LB's placed flows per server, each worth
	// DefaultInflightWeight of load score until the next report.
	inflight map[netip.Addr]int
}

// NewWeightedLeastLoad builds the scheme over the servers with k
// candidates per hunt. view may be nil (no feedback plane), in which
// case the scheme is indistinguishable from NewRandom(servers, k, rng).
// Construction consumes no randomness.
func NewWeightedLeastLoad(servers []netip.Addr, k int, rng *rand.Rand, view LoadView) *WeightedLeastLoad {
	w := &WeightedLeastLoad{
		k:        k,
		rng:      rng,
		view:     view,
		inflight: make(map[netip.Addr]int),
	}
	w.Update(servers)
	return w
}

// Pick implements Scheme: draw k random candidates, then re-rank them
// least-loaded-first when every candidate has a fresh report. Any stale
// candidate keeps the oblivious random order (and the sort is stable,
// so equal scores also keep it).
func (w *WeightedLeastLoad) Pick(flow packet.FlowKey) []netip.Addr {
	cands := w.inner.Pick(flow)
	if w.view == nil || len(cands) < 2 {
		return cands
	}
	var scores [8]float64
	if len(cands) > len(scores) {
		return cands // larger k than the scratch: stay oblivious
	}
	for i, c := range cands {
		load, fresh := w.view.ServerLoad(c)
		if !fresh {
			return cands
		}
		scores[i] = load + DefaultInflightWeight*float64(w.inflight[c])
	}
	// Insertion sort: k is tiny (2 in every experiment) and stability
	// preserves the random order between equals.
	for i := 1; i < len(cands); i++ {
		for j := i; j > 0 && scores[j] < scores[j-1]; j-- {
			scores[j], scores[j-1] = scores[j-1], scores[j]
			cands[j], cands[j-1] = cands[j-1], cands[j]
		}
	}
	return cands
}

// Name implements Scheme.
func (w *WeightedLeastLoad) Name() string { return fmt.Sprintf("wleastload%d", w.k) }

// Observe implements Stateful: track this LB's own placements between
// reports. Counts clamp at zero (idle-expired flows never decrement).
func (w *WeightedLeastLoad) Observe(server netip.Addr, delta int) {
	n := w.inflight[server] + delta
	if n <= 0 {
		delete(w.inflight, server)
		return
	}
	w.inflight[server] = n
}

// Update implements Stateful: replace the candidate set (churn or
// per-VIP filtering), keeping in-flight state for surviving servers.
// Consumes no randomness.
func (w *WeightedLeastLoad) Update(servers []netip.Addr) {
	k := w.k
	if len(servers) < k {
		k = len(servers)
	}
	w.inner = NewRandom(servers, k, w.rng)
	if len(w.inflight) > 0 {
		keep := make(map[netip.Addr]bool, len(servers))
		for _, s := range servers {
			keep[s] = true
		}
		for s := range w.inflight {
			if !keep[s] {
				delete(w.inflight, s)
			}
		}
	}
}

var _ Stateful = (*WeightedLeastLoad)(nil)
