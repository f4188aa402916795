// Package feedback implements the server-load telemetry plane: the
// out-of-band signaling channel that the paper's SR schemes deliberately
// avoid (§II uses only state local to each hop), but that the two natural
// competitors require — Charon-style load-aware weighted selection and
// host-driven flowlet re-steering both need each LB replica to know how
// busy every candidate server currently is.
//
// The plane is deliberately small: each vrouter/appserver owns a
// Publisher that samples its scoreboard (busy workers, open flows) on a
// configurable reporting interval and EWMA-smooths the utilization; the
// reports land in a per-LB View keyed by (VIP, server). Schemes read the
// view through its per-VIP projection (VIPView), which tracks freshness:
// a report older than the TTL answers fresh=false, and every load-aware
// consumer degrades to its load-oblivious fallback on any stale
// candidate — a silent server (crashed, partitioned, or drained) must
// never keep attracting traffic on the strength of an old "I'm idle"
// report.
//
// Determinism: reports are published by DES timers and stamped with the
// simulator clock — the plane performs no wall-clock reads and no
// background goroutines, so feedback-enabled runs stay byte-identical
// across host worker counts. Ingest reuses per-(VIP, server) slots after
// first contact, so the steady-state hot path allocates nothing
// (BenchmarkFeedbackIngest gates this).
package feedback

import (
	"net/netip"
	"time"
)

// Config tunes the telemetry plane. The zero value (Enabled=false)
// disables it entirely; enabled configs take defaults for zero fields.
type Config struct {
	// Enabled turns the plane on. When false the testbed publishes
	// nothing and schemes see a nil view (pure load-oblivious behavior,
	// zero hot-path cost).
	Enabled bool
	// Interval is the reporting period of every publisher (default
	// 100ms of virtual time).
	Interval time.Duration
	// Horizon, when positive, stops the testbed's publishing tickers
	// after this much virtual time — the same bounded-tick idiom as
	// testbed.SampleLoads, so an otherwise-idle simulation terminates.
	// Experiments set it to their run horizon.
	Horizon time.Duration
}

// WithDefaults fills zero fields with the documented defaults.
func (c Config) WithDefaults() Config {
	if c.Interval <= 0 {
		c.Interval = 100 * time.Millisecond
	}
	return c
}

// Alpha is a publisher's EWMA smoothing factor on instantaneous worker
// utilization: higher tracks bursts faster, lower damps sampling noise.
const Alpha = 0.3

// Report is one server's load sample as published to the LBs.
type Report struct {
	// Busy and Workers are the scoreboard's instantaneous occupancy.
	Busy, Workers int
	// Flows is the server's open-connection count at sampling time.
	Flows int
	// Util is the EWMA-smoothed worker utilization (Busy/Workers run
	// through the publisher's filter) — the load score consumers rank
	// by.
	Util float64
	// At is the virtual time the sample was taken.
	At time.Duration
}

// Publisher is one server's report source: it owns the EWMA state so
// that utilization smoothing happens where the samples are taken, and
// every subscribed view receives identical numbers.
type Publisher struct {
	alpha  float64
	util   float64
	primed bool
}

// NewPublisher creates a publisher with the given smoothing factor
// (zero or out-of-range values take Alpha).
func NewPublisher(alpha float64) *Publisher {
	if alpha <= 0 || alpha > 1 {
		alpha = Alpha
	}
	return &Publisher{alpha: alpha}
}

// Sample folds the instantaneous scoreboard reading into the EWMA and
// returns the report to publish. The first sample primes the filter
// directly (no warm-up bias toward zero).
func (p *Publisher) Sample(now time.Duration, busy, workers, flows int) Report {
	inst := 0.0
	if workers > 0 {
		inst = float64(busy) / float64(workers)
	}
	if !p.primed {
		p.util = inst
		p.primed = true
	} else {
		p.util = p.alpha*inst + (1-p.alpha)*p.util
	}
	return Report{Busy: busy, Workers: workers, Flows: flows, Util: p.util, At: now}
}

// slot holds the latest report for one (VIP, server) pair. Slots are
// allocated on first contact and reused forever after — the ingest hot
// path is two map lookups and a struct copy.
type slot struct {
	rpt Report
	has bool
}

// Stats counts view activity.
type Stats struct {
	// Ingests is the total number of reports accepted.
	Ingests uint64
}

// View is one LB replica's subscription to the telemetry plane: the
// latest report per (VIP, server), with freshness judged against the
// caller-provided clock. Not safe for concurrent use (the simulator is
// single-threaded).
type View struct {
	cfg Config
	// ttl bounds how old a report may be and still count as fresh,
	// 3×Interval: one missed report is jitter, three is an outage.
	ttl   time.Duration
	now   func() time.Duration
	vips  map[netip.Addr]*VIPView
	stats Stats
}

// NewView creates a view. now must read the same clock that stamps the
// reports (the DES simulator's Now).
func NewView(cfg Config, now func() time.Duration) *View {
	cfg = cfg.WithDefaults()
	return &View{
		cfg:  cfg,
		ttl:  3 * cfg.Interval,
		now:  now,
		vips: make(map[netip.Addr]*VIPView),
	}
}

// Config returns the view's resolved (defaulted) configuration.
func (v *View) Config() Config { return v.cfg }

// Stats returns a copy of the view counters.
func (v *View) Stats() Stats { return v.stats }

// For returns the per-VIP projection, creating it on first use. The
// pointer is stable for the view's lifetime, so schemes capture it once
// at construction.
func (v *View) For(vip netip.Addr) *VIPView {
	vv := v.vips[vip]
	if vv == nil {
		vv = &VIPView{view: v, slots: make(map[netip.Addr]*slot)}
		v.vips[vip] = vv
	}
	return vv
}

// Ingest records a report for (vip, server), replacing any previous
// one. Steady state (slots already exist) allocates nothing.
func (v *View) Ingest(vip, server netip.Addr, rpt Report) {
	vv := v.For(vip)
	s := vv.slots[server]
	if s == nil {
		s = &slot{}
		vv.slots[server] = s
	}
	s.rpt = rpt
	s.has = true
	v.stats.Ingests++
}

// Reset forgets every report the view has accumulated — a replica
// restarting after a failure comes back with no telemetry, exactly as a
// real process would, and every server answers stale until it reports
// again. Projections are cleared in place: the VIPView pointers handed
// out by For stay valid, so schemes built before the reset keep
// working (and correctly see nothing but staleness until the next
// publish tick). Stats are preserved — they count the view's lifetime,
// not the current contents.
func (v *View) Reset() {
	for _, vv := range v.vips {
		for server := range vv.slots {
			delete(vv.slots, server)
		}
	}
}

// VIPView is the per-VIP projection schemes consume; it implements
// selection.LoadView.
type VIPView struct {
	view  *View
	slots map[netip.Addr]*slot
}

// ServerLoad returns the server's last reported load score and whether
// that report is still fresh (within TTL of now). A server that never
// reported is (0, false); consumers must treat any stale candidate as a
// signal to fall back to load-oblivious behavior.
func (vv *VIPView) ServerLoad(server netip.Addr) (load float64, fresh bool) {
	s := vv.slots[server]
	if s == nil || !s.has {
		return 0, false
	}
	return s.rpt.Util, vv.view.now()-s.rpt.At <= vv.view.ttl
}

// Report returns the last raw report for the server, if any —
// inspection and test hook; the scheme-facing surface is ServerLoad.
func (vv *VIPView) Report(server netip.Addr) (Report, bool) {
	s := vv.slots[server]
	if s == nil || !s.has {
		return Report{}, false
	}
	return s.rpt, true
}
