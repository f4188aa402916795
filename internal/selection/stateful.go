// Stateful scheme surface: the optional interfaces a selection scheme
// may implement beyond Pick/Name, added for the load-feedback policies.
// The core LB probes for them with plain type assertions whenever a
// VIP's scheme is installed (core.Dispatcher.SetSchemes) and keeps nil
// handles for plain schemes, so the paper's load-oblivious policies pay
// nothing on the per-packet path.

package selection

import (
	"net/netip"
	"time"

	"srlb/internal/packet"
)

// LoadView exposes the feedback plane's per-server load reports to
// load-aware schemes (implemented by feedback.VIPView). ServerLoad
// returns the server's smoothed load score and whether the underlying
// report is still fresh; every consumer must degrade to load-oblivious
// behavior when any candidate is stale — an old "I'm idle" report from
// a silent server must never keep attracting traffic.
type LoadView interface {
	ServerLoad(server netip.Addr) (load float64, fresh bool)
}

// Stateful is the stateful scheme variant: schemes that track per-(VIP,
// server) state across flows implement it alongside Scheme.
type Stateful interface {
	Scheme
	// Observe tracks flow lifecycle on this VIP: delta +1 when the LB
	// learns a flow onto server, -1 when the flow starts closing or is
	// re-steered away. The count is advisory (idle-expired flows decay
	// only through Update and fresh reports); schemes clamp at zero.
	Observe(server netip.Addr, delta int)
	// Update replaces the candidate set — the per-(VIP, server) filter
	// hook, also invoked on pool churn so the scheme keeps its
	// accumulated state instead of being reconstructed. Implementations
	// must consume no randomness (the testbed rebuild path relies on
	// construction-time draw-freedom).
	Update(servers []netip.Addr)
}

// Resteerer is implemented by schemes that may move established flows
// (flowlet-grained balancing). The LB consults it on the steered path
// for every eligible packet: given the flow's idle gap since its last
// packet and its currently bound server, the scheme returns the server
// the flow should continue on and whether that is a move. SYNs and RSTs
// are never offered (ResteerEligible); the flowtable rewrite and the
// Observe bookkeeping are the LB's job.
type Resteerer interface {
	Resteer(now time.Duration, flow packet.FlowKey, idle time.Duration, current netip.Addr) (next netip.Addr, move bool)
}

// ResteerEligible is the LB-side gate for Resteerer: a SYN must never
// re-steer (it either starts a hunt or sticks to its rebound server — a
// mid-hunt move would fork the handshake), and an RST is tearing the
// flow down, so moving it only misdelivers the teardown. Everything
// else on the steered path may cross a flowlet boundary.
func ResteerEligible(isSYN, isRST bool) bool {
	return !isSYN && !isRST
}
