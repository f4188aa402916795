// Package agent implements the paper's connection acceptance policies
// (§III): the application agent that sits next to the virtual router on
// every server and decides, from local state only, whether the application
// instance should accept a hunted connection.
//
// The agent reads the busy-worker count from the server's scoreboard
// (Apache's scoreboard shared memory in the paper, §IV-B) — a local read
// with no system call and no out-of-band signaling.
package agent

import (
	"fmt"

	"srlb/internal/appserver"
)

// Policy decides whether the first candidate of an SR list accepts a new
// connection. Implementations may keep state (SRdyn does); they are
// invoked only for packets on which the server has a real choice
// (SegmentsLeft = 2 in the two-candidate deployment — the penultimate
// segment must always accept, which the virtual router enforces without
// consulting the policy).
type Policy interface {
	// Accept reports whether the application should take the connection,
	// given the scoreboard. Implementations may mutate internal state
	// (windowed counters), so Accept is called exactly once per decision.
	Accept(sb appserver.Scoreboard) bool
	// Name returns the policy's display name (e.g. "SR4", "SRdyn").
	Name() string
}

// Static is Algorithm 1 (SRc): accept if and only if fewer than C worker
// threads are busy. C=0 refuses everything (second candidate serves);
// C=n+1 accepts everything (first candidate serves). Both extremes
// degenerate to random load balancing, as §III-A notes.
type Static struct {
	C int
}

// NewStatic returns the SRc policy with threshold c.
func NewStatic(c int) *Static { return &Static{C: c} }

// Accept implements Policy.
func (p *Static) Accept(sb appserver.Scoreboard) bool {
	return sb.BusyWorkers() < p.C
}

// Name implements Policy.
func (p *Static) Name() string { return fmt.Sprintf("SR%d", p.C) }

// The paper's band on the acceptance ratio of one window.
const (
	lowRatio  = 0.4 // below it, c is incremented
	highRatio = 0.6 // above it, c is decremented
)

// Dynamic is Algorithm 2 (SRdyn): the threshold c is adapted so that the
// local acceptance ratio stays near ½, maximizing the information carried
// by each two-candidate choice. Decisions are recorded over a fixed window
// of first-choice offers; at the end of each window, c is incremented if
// the acceptance ratio fell below lowRatio (too many refusals: admit
// more) and decremented if it exceeded highRatio.
type Dynamic struct {
	window   int
	c        int
	accepted int
	attempt  int
}

// NewDynamic returns an SRdyn policy with c0 = 1, the band [0.4, 0.6]
// and window decisions per adaptation window — the one setting the
// ablations vary; 0 takes the paper's 50.
func NewDynamic(window int) *Dynamic {
	if window == 0 {
		window = 50
	}
	return &Dynamic{window: window, c: 1}
}

// C returns the current threshold (exported for tests and telemetry).
func (p *Dynamic) C() int { return p.c }

// Accept implements Policy — a verbatim transcription of Algorithm 2.
func (p *Dynamic) Accept(sb appserver.Scoreboard) bool {
	p.attempt++
	if p.attempt >= p.window {
		// End of window: adapt c if needed and reset.
		ratio := float64(p.accepted) / float64(p.window)
		n := sb.TotalWorkers()
		if ratio < lowRatio && p.c < n {
			p.c++
		} else if ratio > highRatio && p.c > 0 {
			p.c--
		}
		p.attempt = 0
		p.accepted = 0
	}
	if sb.BusyWorkers() < p.c {
		p.accepted++
		return true
	}
	return false
}

// Name implements Policy.
func (p *Dynamic) Name() string { return "SRdyn" }

// Always accepts every offer — with two candidates this makes the first
// candidate serve everything, i.e. random load balancing (it is also the
// behavior of SRc with c = n+1).
type Always struct{}

// Accept implements Policy.
func (Always) Accept(appserver.Scoreboard) bool { return true }

// Name implements Policy.
func (Always) Name() string { return "Always" }

// Never refuses every offer, pushing all traffic to the second candidate.
type Never struct{}

// Accept implements Policy.
func (Never) Accept(appserver.Scoreboard) bool { return false }

// Name implements Policy.
func (Never) Name() string { return "Never" }

// Interface compliance checks.
var (
	_ Policy = (*Static)(nil)
	_ Policy = (*Dynamic)(nil)
	_ Policy = Always{}
	_ Policy = Never{}
)
