package experiments

import (
	"context"
	"fmt"
	"io"
	"time"

	"srlb/internal/agent"
	"srlb/internal/stats"
	"srlb/internal/testbed"
)

// FailoverConfig is the LB-replica failover experiment: N stateless LB
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
type FailoverConfig struct {
	Base
	// Rho is the normalized load (default 0.85 — busy but unsaturated,
	// so the transient is attributable to the failover, not overload).
	Rho     float64
	Lambda0 float64
	// Replicas is the LB replica count (default 2); replica 0 is killed.
	Replicas int
	// KillFrac places the failure at this fraction of the arrival span
	// (default 0.5). RecoverFrac, when nonzero, re-attaches the replica
	// (stateless) at that fraction.
	KillFrac, RecoverFrac float64
	// Bins is the transient-timeline resolution (default 40).
	Bins int
}

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
	// KillAt (and RecoverAt, zero when the replica stays dead) are the
	// scheduled event times.
	KillAt, RecoverAt time.Duration
	BinWidth          time.Duration
	Seeds             []uint64
	Modes             []FailoverMode
}

// failoverBinRaw is the per-seed transient accounting of one cell.
type failoverBinRaw struct {
	Count, OK, Refused int
	SumRT              time.Duration
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
		} else if res.Refused {
			b.Refused++
		}
	}}
	out, err := OneService(w.arrivals).run(ctx, cluster, spec, load, hooks)
	out.failoverBins = raw
	return out, err
}

// RunFailover executes the experiment.
func RunFailover(cfg FailoverConfig) FailoverResult {
	cfg.Base = cfg.Base.withDefaults()
	if cfg.Rho == 0 {
		cfg.Rho = 0.85
	}
	if cfg.Replicas == 0 {
		cfg.Replicas = 2
	}
	if cfg.KillFrac == 0 {
		cfg.KillFrac = 0.5
	}
	if cfg.Bins == 0 {
		cfg.Bins = 40
	}
	cfg.Lambda0 = cfg.Cluster.lambda0(cfg.Lambda0)

	// The schedule is rate-relative: kill (and recovery) are fractions of
	// the arrival span, resolved per load point by the workload — so the
	// same variant pair would serve a whole load sweep, exactly as
	// RunChurn's schedule does (historically the kill time was computed
	// absolutely here, which pinned the experiment to one rho).
	span := PoissonService{Lambda0: cfg.Lambda0, Queries: cfg.Queries}.Span(cfg.Rho)
	killAt := time.Duration(cfg.KillFrac * float64(span))
	var recoverAt time.Duration
	events := []testbed.Event{testbed.FailReplica(0, 0).AtFraction(cfg.KillFrac)}
	if cfg.RecoverFrac > 0 {
		recoverAt = time.Duration(cfg.RecoverFrac * float64(span))
		events = append(events, testbed.RecoverReplica(0, 0).AtFraction(cfg.RecoverFrac))
	}
	// Each mode pins the selection knobs explicitly — the base cluster's
	// own ConsistentHash/MissFallback settings must not leak into the
	// mode labeled the other way.
	replicate := func(c ClusterConfig) ClusterConfig {
		c.Replicas = cfg.Replicas
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

	sweep, _ := cfg.runner().RunSweep(context.Background(), Sweep{
		Cluster:  cfg.Cluster,
		Policies: []PolicySpec{policy},
		Variants: variants,
		Loads:    []float64{cfg.Rho},
		Seeds:    cfg.Seeds,
		Workload: failoverWorkload{arrivals: PoissonService{Lambda0: cfg.Lambda0, Queries: cfg.Queries}, bins: cfg.Bins},
	})
	agg := sweep.Aggregate()

	res := FailoverResult{
		Rho: cfg.Rho, Lambda0: cfg.Lambda0, Replicas: cfg.Replicas,
		KillAt: killAt, RecoverAt: recoverAt,
		BinWidth: span / time.Duration(cfg.Bins),
		Seeds:    sweep.Seeds,
	}
	for vi, va := range variants {
		mode := FailoverMode{ServiceRow: ServiceRow{Variant: va.Name}}
		if rows := cellRows(agg.CellAt(0, vi, 0)); rows != nil {
			mode.ServiceRow = rows[0]
		}
		var timelines [][]failoverBinRaw
		for si := range sweep.Seeds {
			cell := sweep.CellAt(0, vi, 0, si)
			if cell.Err == nil {
				timelines = append(timelines, cell.Outcome.failoverBins)
			}
		}
		mode.Bins = aggregateFailoverBins(res.BinWidth, cfg.Bins, timelines)
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

// WriteTSV renders the transient: one block per mode, one row per bin.
func (r FailoverResult) WriteTSV(w io.Writer) error {
	t := tsvWriter{w: w}
	t.printf("# LB-replica failover transient: rho=%.2f, %d replicas, kill t=%.1fs",
		r.Rho, r.Replicas, r.KillAt.Seconds())
	if r.RecoverAt > 0 {
		t.printf(", recover t=%.1fs", r.RecoverAt.Seconds())
	}
	t.printf("; lambda0=%.1f q/s\n", r.Lambda0)
	for _, m := range r.Modes {
		t.printf("# mode: %s (n=%d seeds, ok=%.4f refused=%.0f unfinished=%.0f)\n",
			m.Variant, m.N, m.OKFrac, m.Refused, m.Unfinished)
		t.printf("t_s\tmean_rt_s\tmean_rt_ci95\tfailed_frac\tfailed_frac_ci95\n")
		for _, b := range m.Bins {
			t.printf("%.2f\t%.4f\t%.4f\t%.4f\t%.4f\n",
				b.Start.Seconds(), b.MeanRT, b.MeanRTCI95, b.FailedFrac, b.FailedFracCI95)
		}
		t.printf("\n")
	}
	return t.err
}

// Mode returns the named mode's outcome.
func (r FailoverResult) Mode(name string) (FailoverMode, error) {
	for _, m := range r.Modes {
		if m.Variant == name {
			return m, nil
		}
	}
	return FailoverMode{}, fmt.Errorf("failover: no mode %q", name)
}
