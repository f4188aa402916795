package experiments

import (
	"context"
	"math/rand/v2"
	"time"

	"srlb/internal/rng"
	"srlb/internal/sketch"
	"srlb/internal/testbed"
)

// Workload is an arrival process plus a demand model, replayable against
// any (cluster, policy) pair at a given load point. Implementations must
// derive all randomness from the cluster seed so that a scenario's outcome
// is a pure function of its inputs — this is what lets the Runner execute
// cells in any order, on any number of workers, with identical results.
type Workload interface {
	// Label names the workload in progress lines and artifacts.
	Label() string
	// Run replays the workload against a freshly built testbed. load is
	// the workload's intensity knob — the normalized rate ρ for the
	// Poisson-family workloads, a replay speed-up for the wiki day as a
	// service (WikiWorkload ignores it). Run returns
	// ctx.Err() when cancelled mid-replay; the outcome then holds the
	// partial measurement.
	Run(ctx context.Context, cluster ClusterConfig, spec PolicySpec, load float64) (CellOutcome, error)
}

// CellOutcome is the measurement a Workload produces for one cell.
type CellOutcome struct {
	// RT sketches the response times of successful queries in constant
	// memory (quantiles within sketch.MaxRelativeError; count/mean exact).
	RT *sketch.Histogram
	// Refused counts RST-refused connections; Unfinished counts queries
	// still pending (or timed out client-side) at horizon end.
	Refused    int
	Unfinished int
	// PerVIP breaks the outcome down by service, in the workload's
	// service order (one entry for a one-service cell). The aggregate
	// fields above always cover all VIPs: summing a VIPOutcome column
	// reproduces them. Nil for the §VI day (WikiWorkload), which
	// accounts per query class instead.
	PerVIP []VIPOutcome
	// Cluster holds the cluster-side counters of the run.
	Cluster ClusterStats
	// Wiki is the per-class, per-bin outcome of WikiWorkload; nil for
	// every other workload and for a skipped cell.
	Wiki *WikiRun
	// Timeline bins the cell's queries by issue time: launched, completed
	// and their summed response time per bin. Zero for the §VI day
	// (WikiWorkload), which bins per class instead.
	Timeline testbed.Timeline
	// LoadSamples is figure 4's smoothed load timeline (fig4Workload only).
	LoadSamples []Fig4Sample
}

// VIPOutcome is one service's share of a multi-VIP cell: the same
// accounting as CellOutcome, restricted to queries addressed to that VIP.
type VIPOutcome struct {
	// Name is the service name; Workload labels its arrival process.
	Name     string
	Workload string
	// Load is the service's own resolved load point. It equals the
	// cell's load unless the workload carries per-service load axes
	// (MultiServiceWorkload.ServiceLoads) — a fixed victim keeps its
	// pinned ρ while the sweep's knob drives the aggressor.
	Load float64
	// Offered counts queries launched at this VIP — the conservation
	// anchor: Offered == RT.Count() + Refused + Unfinished at run end.
	Offered int
	// RT sketches the response times of this VIP's successful queries.
	RT *sketch.Histogram
	// Refused and Unfinished count this VIP's failed queries.
	Refused    int
	Unfinished int
}

// OKFraction returns the completed fraction of the VIP's offered queries.
func (o VIPOutcome) OKFraction() float64 {
	if o.RT == nil || o.Offered == 0 {
		return 0
	}
	return float64(o.RT.Count()) / float64(o.Offered)
}

// total views the cell's aggregate accounting as one service covering
// every VIP, Offered being the queries observed (completed + refused +
// unfinished) — the shape the replication fold takes.
func (o CellOutcome) total() VIPOutcome {
	offered := o.Refused + o.Unfinished
	if o.RT != nil {
		offered += o.RT.Count()
	}
	return VIPOutcome{Offered: offered, RT: o.RT, Refused: o.Refused, Unfinished: o.Unfinished}
}

// OKFraction returns the completed fraction of all observed queries
// (0 for a skipped cell, whose RT is nil).
func (o CellOutcome) OKFraction() float64 { return o.total().OKFraction() }

// ClusterStats are the cluster-side counters of one replayed cell, read
// off the testbed after the run (zero on a skipped cell).
type ClusterStats struct {
	// ServerCompleted is the number of queries each server completed —
	// the capacity-shedding evidence of the heterogeneous-cluster study.
	ServerCompleted []uint64
	// Retransmits and SYNTimeouts are nonzero only with RetransmitRTO set
	// (the §IV-C silent-drop study).
	Retransmits uint64
	SYNTimeouts uint64
	// Resteers counts flowlet re-steers (mid-connection candidate
	// rewrites) summed across LB replicas; Rebinds is the flow-table view
	// of the same events — equal to Resteers unless a rebind raced an
	// expiry.
	Resteers uint64
	Rebinds  uint64
}

// clusterStats reads the counters off a replayed testbed.
func clusterStats(tb *testbed.Testbed) ClusterStats {
	cs := ClusterStats{
		ServerCompleted: make([]uint64, len(tb.Servers)),
		Retransmits:     tb.Gen.Counts.Get("syn_retransmits"),
		SYNTimeouts:     tb.Gen.Counts.Get("syn_timeout"),
	}
	for i, s := range tb.Servers {
		cs.ServerCompleted[i] = s.Stats().Completed
	}
	for _, lb := range tb.LBs {
		cs.Resteers += lb.Counts.Get("flowlet_resteer")
		cs.Rebinds += lb.FlowStats().Rebinds
	}
	return cs
}

// mmpp generates arrivals of a two-state Markov-modulated Poisson process
// with mean dwell times burstyMeanOn and burstyMeanOff. Exponential
// holding times make the per-state restart at each boundary exact
// (memorylessness), so no thinning is needed.
type mmpp struct {
	r               *rand.Rand
	rateOn, rateOff float64
	t, switchAt     time.Duration
	on              bool
}

func (p *mmpp) Next() time.Duration {
	for {
		rate := p.rateOff
		if p.on {
			rate = p.rateOn
		}
		if rate > 0 {
			dt := rng.ExpRate(p.r, rate)
			if p.t+dt <= p.switchAt {
				p.t += dt
				return p.t
			}
		}
		p.t = p.switchAt
		p.on = !p.on
		dwell := burstyMeanOff
		if p.on {
			dwell = burstyMeanOn
		}
		p.switchAt = p.t + rng.Exp(p.r, dwell)
	}
}

// arrivalStream yields successive absolute arrival times of an open-loop
// arrival process.
type arrivalStream interface {
	Next() time.Duration
}
