package experiments

import (
	"context"
	"fmt"
	"time"

	"srlb/internal/agent"
	"srlb/internal/stats"
	"srlb/internal/testbed"
)

const (
	failoverRho      = 0.85
	failoverReplicas = 2
	failoverBins     = 40
	// failoverKillFrac places the failure at this fraction of the
	// arrival span.
	failoverKillFrac = 0.5
)

// FailoverBin is one point of the transient timeline, aggregated across
// the replication axis (CI95 fields are zero when N == 1).
type FailoverBin struct {
	// Start is the bin's left edge in issue time.
	Start time.Duration
	// MeanRT is the across-seed mean of the bin's mean response time
	// over completed queries, in seconds.
	MeanRT, MeanRTCI95 float64
	// FailedFrac is the fraction of the bin's queries that did not
	// complete (refused or stalled until simulation end).
	FailedFrac, FailedFracCI95 float64
}

// FailoverMode is one variant's outcome: the whole-run row aggregated
// across seeds, the mode's name in Variant (a mode with no completed
// replicate keeps a zero row), plus the transient timeline.
type FailoverMode struct {
	ServiceRow
	Bins []FailoverBin
}

// FailoverResult holds both variants.
type FailoverResult struct {
	Rho      float64
	Lambda0  float64
	Replicas int
	// KillAt is the scheduled kill time.
	KillAt   time.Duration
	BinWidth time.Duration
	Seeds    []uint64
	Modes    []FailoverMode
}

// failoverBinRaw is the per-seed transient accounting of one cell.
type failoverBinRaw struct {
	Count, OK int
	SumRT     time.Duration
}

// failoverWorkload is the Poisson cell instrumented with per-issue-
// time-bin accounting of the failover transient.
type failoverWorkload struct {
	arrivals PoissonService
	bins     int
}

// Label implements Workload.
func (w failoverWorkload) Label() string {
	return fmt.Sprintf("poisson+transient(%dq)", w.arrivals.Queries)
}

// Run implements Workload.
func (w failoverWorkload) Run(ctx context.Context, cluster ClusterConfig, spec PolicySpec, load float64) (CellOutcome, error) {
	binW := w.arrivals.Span(load) / time.Duration(w.bins)
	raw := make([]failoverBinRaw, w.bins)
	hooks := PoissonHooks{OnResult: func(res testbed.Result) {
		i := int(res.IssuedAt / binW)
		if i < 0 {
			i = 0
		}
		if i >= len(raw) {
			i = len(raw) - 1
		}
		b := &raw[i]
		b.Count++
		if res.OK {
			b.OK++
			b.SumRT += res.RT
		}
	}}
	out, err := OneService(w.arrivals).run(ctx, cluster, spec, load, hooks)
	out.failoverBins = raw
	return out, err
}

// RunFailover runs the LB-replica failover experiment: N stateless LB
// replicas share the anycast VIP behind ECMP, one is killed mid-run, and
// the client-observed transient (response times and failed queries,
// bucketed by issue time) is measured. Two topology variants run under
// identical arrivals:
//
//   - "maglev+fallback" — §II-B consistent-hash selection plus the
//     consistent-hash miss-fallback on the steering path. Survivors
//     recompute every flow's server from the packet alone, so flows that
//     re-hash onto a replica that never learned them keep flowing:
//     completions stay at 100% straight through the kill.
//   - "random" — the paper's uniform-random selection, no fallback.
//     The timeline exposes that this is broken *structurally*, not just
//     at failover: the two ECMP directions hash independently, so about
//     half the flows are steered by a replica that never saw their
//     SYN-ACK and stall even in steady state — and once the replica
//     dies, the survivor (now consistent with itself by default) stops
//     missing. With random selection, two replicas are worse than one.
//
// This is the deployment story the paper's consistent-hashing section
// tells, measured: deterministic selection is the *prerequisite* for
// running SRLB as a stateless anycast fleet, and with it replica death
// is free.
//
// The run is one load point, rho 0.85 — busy but unsaturated, so the
// transient is attributable to the failover, not overload — on two
// replicas, of which replica 0 dies at failoverKillFrac of the arrival
// span and stays dead; the timeline has 40 bins.
func RunFailover(b Base) FailoverResult {
	b = b.resolved()

	// The schedule is rate-relative: the kill is a fraction of the
	// arrival span, resolved per load point by the workload — so the
	// same variant pair would serve a whole load sweep, exactly as
	// RunChurn's schedule does.
	span := b.poisson().Span(failoverRho)
	killAt := time.Duration(failoverKillFrac * float64(span))
	events := []testbed.Event{testbed.FailReplica(0, 0).AtFraction(failoverKillFrac)}
	// Each mode pins the selection knobs explicitly — the base cluster's
	// own ConsistentHash/MissFallback settings must not leak into the
	// mode labeled the other way.
	replicate := func(c ClusterConfig) ClusterConfig {
		c.Replicas = failoverReplicas
		c.Events = events
		return c
	}
	variants := []ClusterVariant{
		{Name: "maglev+fallback", Apply: func(c ClusterConfig) ClusterConfig {
			c = replicate(c)
			c.ConsistentHash = true
			c.MissFallback = true
			return c
		}},
		{Name: "random", Apply: func(c ClusterConfig) ClusterConfig {
			c = replicate(c)
			c.ConsistentHash = false
			c.MissFallback = false
			return c
		}},
	}
	// Both variants use the same acceptance policy — every first
	// candidate accepts — so the comparison isolates flow steering: with
	// deterministic selection the fallback lands exactly on the server
	// that accepted; with random selection there is nothing to fall back
	// to.
	policy := PolicySpec{
		Name:       "first-accept",
		Candidates: 2,
		NewAgent:   func() agent.Policy { return agent.Always{} },
	}

	sweep, _ := b.runner().RunSweep(context.Background(), Sweep{
		Cluster:  b.Cluster,
		Policies: []PolicySpec{policy},
		Variants: variants,
		Loads:    []float64{failoverRho},
		Seeds:    b.Seeds,
		Workload: failoverWorkload{arrivals: b.poisson(), bins: failoverBins},
	})
	agg := sweep.Aggregate()

	res := FailoverResult{
		Rho: failoverRho, Lambda0: b.Lambda0, Replicas: failoverReplicas,
		KillAt:   killAt,
		BinWidth: span / failoverBins,
		Seeds:    sweep.Seeds,
	}
	for vi, va := range variants {
		mode := FailoverMode{ServiceRow: ServiceRow{Variant: va.Name}}
		if rows := cellRows(agg.CellAt(0, vi, 0)); rows != nil {
			mode.ServiceRow = rows[0]
		}
		var timelines [][]failoverBinRaw
		for _, cell := range completed(sweep.Replicates(0, vi, 0)) {
			timelines = append(timelines, cell.Outcome.failoverBins)
		}
		mode.Bins = aggregateFailoverBins(res.BinWidth, failoverBins, timelines)
		res.Modes = append(res.Modes, mode)
	}
	return res
}

// aggregateFailoverBins folds per-seed bin timelines into pointwise
// mean ± CI series. Bin edges are deterministic, so bin i aligns across
// replicates.
func aggregateFailoverBins(binW time.Duration, bins int, timelines [][]failoverBinRaw) []FailoverBin {
	if len(timelines) == 0 {
		return nil
	}
	out := make([]FailoverBin, bins)
	rts := make([]float64, 0, len(timelines))
	fails := make([]float64, 0, len(timelines))
	for i := range out {
		rts, fails = rts[:0], fails[:0]
		for _, tl := range timelines {
			b := tl[i]
			if b.OK > 0 {
				rts = append(rts, (b.SumRT / time.Duration(b.OK)).Seconds())
			}
			if b.Count > 0 {
				fails = append(fails, float64(b.Count-b.OK)/float64(b.Count))
			}
		}
		dr, df := stats.Describe(rts), stats.Describe(fails)
		out[i] = FailoverBin{
			Start:  time.Duration(i) * binW,
			MeanRT: dr.Mean, MeanRTCI95: dr.CI95,
			FailedFrac: df.Mean, FailedFracCI95: df.CI95,
		}
	}
	return out
}

// TSV is the transient: one table per mode, one row per bin.
func (r FailoverResult) TSV() TSV {
	f := TSV{Heading: fmt.Sprintf("LB-replica failover transient: rho=%.2f, %d replicas, kill t=%.1fs; lambda0=%.1f q/s",
		r.Rho, r.Replicas, r.KillAt.Seconds(), r.Lambda0)}
	cols := []column[FailoverBin]{
		{"t_s", func(b FailoverBin) string { return fmt.Sprintf("%.2f", b.Start.Seconds()) }},
		{"mean_rt_s", func(b FailoverBin) string { return fmt.Sprintf("%.4f", b.MeanRT) }},
		{"mean_rt_ci95", func(b FailoverBin) string { return fmt.Sprintf("%.4f", b.MeanRTCI95) }},
		{"failed_frac", func(b FailoverBin) string { return fmt.Sprintf("%.4f", b.FailedFrac) }},
		{"failed_frac_ci95", func(b FailoverBin) string { return fmt.Sprintf("%.4f", b.FailedFracCI95) }},
	}
	for _, m := range r.Modes {
		f.Tables = append(f.Tables, newTable("", fmt.Sprintf("mode: %s (n=%d seeds, ok=%.4f refused=%.0f unfinished=%.0f)",
			m.Variant, m.N, m.OKFrac, m.Refused, m.Unfinished), cols, m.Bins))
	}
	return f
}
