package experiments

import (
	"context"
	"fmt"
	"math/rand/v2"
	"time"

	"srlb/internal/rng"
	"srlb/internal/sketch"
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
	// Poisson-family workloads, a replay speed-up for traces. Run returns
	// ctx.Err() when cancelled mid-replay; the outcome then holds the
	// partial measurement.
	Run(ctx context.Context, cluster ClusterConfig, spec PolicySpec, load float64) (CellOutcome, error)
}

// VectorWorkload is a Workload that can run a per-service load vector —
// the contract grid sweeps (Sweep.LoadGrid) dispatch through. The same
// determinism rules as Run apply: the outcome must be a pure function
// of (cluster, spec, loads).
type VectorWorkload interface {
	Workload
	// RunVector replays the workload with service d pinned at loads[d].
	RunVector(ctx context.Context, cluster ClusterConfig, spec PolicySpec, loads []float64) (CellOutcome, error)
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
	// PerVIP breaks the outcome down by service for multi-VIP workloads
	// (MultiServiceWorkload), in the workload's service order; nil for
	// single-VIP workloads. The aggregate fields above always cover all
	// VIPs: summing a VIPOutcome column reproduces them.
	PerVIP []VIPOutcome
	// Extra carries workload-specific payloads: PoissonStats for the
	// Poisson-family workloads, WikiRun for WikiWorkload, the sampled
	// timeline for figure 4's workload.
	Extra any
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

// PoissonStats is the Extra payload of PoissonWorkload and BurstyWorkload.
type PoissonStats struct {
	// ServerCompleted is the number of queries each server completed —
	// the capacity-shedding evidence of the heterogeneous-cluster study.
	ServerCompleted []uint64
	// Retransmits and SYNTimeouts are nonzero only with RetransmitRTO set
	// (the §IV-C silent-drop study).
	Retransmits uint64
	SYNTimeouts uint64
}

// PoissonWorkload is the paper's §V workload: open-loop Poisson arrivals
// with Exp(MeanDemand) CPU demands. rate = load × Lambda0.
type PoissonWorkload struct {
	// Lambda0 converts the load point to an absolute rate in queries/sec
	// (measure it with Calibrate; §V-A).
	Lambda0 float64
	// Queries per cell (default 20000, the paper's batch).
	Queries int
	// RetransmitRTO, when nonzero, enables client SYN retransmission —
	// pair with Cluster.Server.AbortOnOverflow=false for the §IV-C study.
	RetransmitRTO time.Duration
}

// service is the workload's arrival process — the same stream a
// MultiServiceWorkload opens for a PoissonService.
func (w PoissonWorkload) service() PoissonService {
	return PoissonService{Lambda0: w.Lambda0, Queries: w.Queries}
}

// Label implements Workload.
func (w PoissonWorkload) Label() string { return w.service().Label() }

// Run implements Workload.
func (w PoissonWorkload) Run(ctx context.Context, cluster ClusterConfig, spec PolicySpec, load float64) (CellOutcome, error) {
	return replayService(ctx, cluster, spec, w.service(), load, replaySettings{retransmitRTO: w.RetransmitRTO})
}

// BurstyWorkload is a two-state Markov-modulated Poisson process — a
// flowlet-style on/off arrival stream in the spirit of the host-driven
// flowlet-balancing literature: bursts at several times the long-run rate
// alternate with quiet periods, while the mean stays load × Lambda0. It
// stresses exactly what Service Hunting is for: instantaneous imbalance
// that a static random spray cannot see.
type BurstyWorkload struct {
	Lambda0 float64
	Queries int
	// MeanOn and MeanOff are the mean burst and quiet durations
	// (exponentially distributed; defaults 2s and 6s).
	MeanOn, MeanOff time.Duration
	// PeakFactor is the ON-state rate relative to the long-run mean
	// (default 3; capped at (MeanOn+MeanOff)/MeanOn, where the OFF state
	// goes fully quiet).
	PeakFactor float64
}

func (w BurstyWorkload) withDefaults() BurstyWorkload {
	if w.Queries == 0 {
		w.Queries = 20000
	}
	if w.MeanOn == 0 {
		w.MeanOn = 2 * time.Second
	}
	if w.MeanOff == 0 {
		w.MeanOff = 6 * time.Second
	}
	if w.PeakFactor == 0 {
		w.PeakFactor = 3
	}
	onFrac := w.MeanOn.Seconds() / (w.MeanOn + w.MeanOff).Seconds()
	if w.PeakFactor > 1/onFrac {
		w.PeakFactor = 1 / onFrac
	}
	if w.PeakFactor < 1 {
		w.PeakFactor = 1
	}
	return w
}

// Label implements Workload.
func (w BurstyWorkload) Label() string {
	w = w.withDefaults()
	return fmt.Sprintf("bursty(%dq,peak=%.1fx)", w.Queries, w.PeakFactor)
}

// Run implements Workload.
func (w BurstyWorkload) Run(ctx context.Context, cluster ClusterConfig, spec PolicySpec, load float64) (CellOutcome, error) {
	svc := BurstyService{
		Lambda0: w.Lambda0, Queries: w.Queries,
		MeanOn: w.MeanOn, MeanOff: w.MeanOff, PeakFactor: w.PeakFactor,
	}
	return replayService(ctx, cluster, spec, svc, load, replaySettings{})
}

// newMMPP builds the workload's arrival process at the given load from
// the given seed — shared by BurstyWorkload and BurstyService so the two
// forms generate the identical on/off stream. w must already carry its
// defaults.
func (w BurstyWorkload) newMMPP(seed uint64, load float64) *mmpp {
	mean := load * w.Lambda0
	onFrac := w.MeanOn.Seconds() / (w.MeanOn + w.MeanOff).Seconds()
	rateOn := w.PeakFactor * mean
	rateOff := (mean - onFrac*rateOn) / (1 - onFrac)
	if rateOff < 0 {
		rateOff = 0
	}
	arrivals := &mmpp{
		r:       rng.Split(seed, 0xb124),
		rateOn:  rateOn,
		rateOff: rateOff,
		meanOn:  w.MeanOn,
		meanOff: w.MeanOff,
	}
	// Start in the OFF state with a fresh dwell time.
	arrivals.switchAt = rng.Exp(arrivals.r, arrivals.meanOff)
	return arrivals
}

// mmpp generates arrivals of a two-state Markov-modulated Poisson process.
// Exponential holding times make the per-state restart at each boundary
// exact (memorylessness), so no thinning is needed.
type mmpp struct {
	r               *rand.Rand
	rateOn, rateOff float64
	meanOn, meanOff time.Duration
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
		dwell := p.meanOff
		if p.on {
			dwell = p.meanOn
		}
		p.switchAt = p.t + rng.Exp(p.r, dwell)
	}
}

// arrivalStream yields successive absolute arrival times of an open-loop
// arrival process.
type arrivalStream interface {
	Next() time.Duration
}
