package main

import (
	"encoding/binary"
	"fmt"
	"hash/fnv"
	"time"

	"srlb/internal/experiments"
	"srlb/internal/feedback"
	"srlb/internal/sketch"
	"srlb/internal/testbed"
)

// simClients is the number of client source addresses of the simulated
// cluster (the experiments layer's default), which the tracer needs to
// re-bind the generator.
const simClients = 8

// cellRunner drives the paper's unit of work: one (policy, ρ) Poisson
// cell on the 12-server cluster, through experiments.RunPoisson. A round
// is one whole cell on a freshly built testbed, seeded from (seed,
// stream); the simulator is open-loop in simulated time, the benchmark
// measures the host time it takes to get through it.
type cellRunner struct {
	seed    uint64
	cluster experiments.ClusterConfig // Seed is set per round
	spec    experiments.PolicySpec
	rho     float64
	// closeAck makes clients close with ACK+FIN (the flowlet workload).
	closeAck bool
	// roundOps is the cell size of the end-to-end pass; batch the number
	// of completions timed together.
	roundOps, batch int

	// golden is the digest this cell must produce at the pinned seed.
	golden uint64

	// State of the last round, kept referenced so heap_live_mb sees it
	// and the per-layer pass can read the nodes' counters.
	tb  *testbed.Testbed
	run experiments.PoissonRun
	// build is the last round's testbed build time (RunPoisson entry to
	// the Testbed hook).
	build time.Duration
	err   error
}

func (c *cellRunner) opName() string  { return "query" }
func (c *cellRunner) spans() bool     { return true }
func (c *cellRunner) defaultOps() int { return c.roundOps }
func (c *cellRunner) warmupOps() int  { return c.roundOps / 10 }
func (c *cellRunner) traceOps(s float64) int {
	return roundTo(int(float64(c.roundOps)/10*s), c.batch)
}

func roundTo(n, unit int) int {
	if n < unit {
		return unit
	}
	return n - n%unit
}

func (c *cellRunner) clusterFor(stream uint64) experiments.ClusterConfig {
	cl := c.cluster
	cl.Seed = deriveSeed(c.seed, stream)
	return cl
}

// setup reports the host time to build the cluster, measured as users
// pay it: from RunPoisson's entry to the Testbed hook, on one-query runs
// whose remainder is negligible.
func (c *cellRunner) setup() float64 {
	return clusterBuildSeconds(c.clusterFor(0), c.spec)
}

// A cluster build takes about 20 µs, the first ones in a process run on
// a cold heap at two to three times that, and a garbage collection
// overlaps a varying share of the rest: across processes the median of
// 300 warm builds moves by a factor of two while their lower decile
// repeats within 10 %. Noise on a build this short only ever adds time,
// so the decile is the estimate of what the build itself costs.
const (
	buildSamples  = 400
	buildWarmup   = 100
	buildQuantile = 0.1
)

func clusterBuildSeconds(cluster experiments.ClusterConfig, spec experiments.PolicySpec) float64 {
	samples := make([]float64, buildSamples)
	for i := range samples {
		t0 := time.Now()
		experiments.RunPoisson(cluster, spec, 100, 1, experiments.PoissonHooks{
			Testbed: func(*testbed.Testbed, time.Duration) { samples[i] = time.Since(t0).Seconds() },
		})
	}
	return quantile(samples[buildWarmup:], buildQuantile)
}

func (c *cellRunner) round(p *pass, tr *tracer, stream uint64, queries int) {
	cluster := c.clusterFor(stream)
	rate := c.rho * cluster.TheoreticalCapacity()
	done := 0
	t0 := time.Now()
	last := t0
	hooks := experiments.PoissonHooks{
		OnResult: func(testbed.Result) {
			done++
			if done%c.batch == 0 {
				now := time.Now()
				p.batchNS = append(p.batchNS, float64(now.Sub(last))/float64(c.batch))
				last = now
				if tr != nil {
					tr.observeHeap()
				}
			}
		},
		Testbed: func(tb *testbed.Testbed, _ time.Duration) {
			c.build = time.Since(t0)
			c.tb = tb
			if c.closeAck {
				tb.Gen.CloseAck = true
			}
			if tr != nil {
				tr.install(tb, simClients)
			}
		},
	}
	c.run = experiments.RunPoisson(cluster, c.spec, rate, queries, hooks)
	p.wall += time.Since(t0)
	p.ops += int64(queries)
	p.failed += int64(c.run.Refused + c.run.Unfinished)
	p.events += c.tb.Sim.Processed()
	p.pkts += lbForwarded(c.tb)
	if c.err == nil {
		c.err = c.conservation(queries)
	}
}

// lbForwarded counts the packets the LB handled and forwarded: one
// transmission per hunt start, relayed return and steered packet.
func lbForwarded(tb *testbed.Testbed) uint64 {
	lc := tb.LB.Counts
	return lc.Get("hunts_started") + lc.Get("returns_relayed") + lc.Get("steered")
}

// conservation checks the per-VIP accounting identities of the round
// just run (single VIP, so the totals are the per-VIP numbers).
func (c *cellRunner) conservation(queries int) error {
	run := c.run
	if got := run.RT.Count() + run.Refused + run.Unfinished; got != queries {
		return fmt.Errorf("conservation: offered %d != ok %d + refused %d + unfinished %d",
			queries, run.RT.Count(), run.Refused, run.Unfinished)
	}
	launched := c.tb.Gen.Counts.Get("queries_launched")
	syns := c.tb.LB.VIPSYNs(testbed.VIP)
	if launched != uint64(queries) || syns != launched {
		return fmt.Errorf("conservation: %d queries, %d launched, %d SYNs counted at the VIP", queries, launched, syns)
	}
	return nil
}

// verify reports the first conservation failure of the rounds run, and
// then checks the pinned outcome: whatever seed the run was given, a
// small cell at pinnedSeed must produce the digest golden.go records.
func (c *cellRunner) verify() error {
	if c.err != nil {
		return c.err
	}
	pin := *c
	pin.seed = pinnedSeed
	pin.round(&pass{}, nil, streamFixed, pinnedQueries)
	if pin.err != nil {
		return pin.err
	}
	if got := pin.digest(); got != c.golden {
		return fmt.Errorf("simulated outcome moved: %s digests to %#x at the pinned seed, golden.go has %#x", c.spec.Name, got, c.golden)
	}
	return nil
}

// digest hashes the simulated outcome of the last round — RT histogram,
// outcome counters and events processed — into 48 bits (exact in a
// float64): a change meant only to speed the simulator must leave it
// unchanged for a seed.
func (c *cellRunner) digest() uint64 {
	return outcomeDigest(c.run.RT, uint64(c.run.Refused), uint64(c.run.Unfinished), c.tb.Sim.Processed())
}

func outcomeDigest(rt *sketch.Histogram, counters ...uint64) uint64 {
	h := fnv.New64a()
	put := func(v uint64) {
		var b [8]byte
		binary.BigEndian.PutUint64(b[:], v)
		h.Write(b[:])
	}
	put(uint64(rt.Count()))
	put(uint64(rt.Sum()))
	put(uint64(rt.Min()))
	put(uint64(rt.Max()))
	for _, pt := range rt.CDF(512) {
		put(uint64(pt.Value))
	}
	for _, c := range counters {
		put(c)
	}
	return h.Sum64() & (1<<48 - 1)
}

func newCellSR4(seed uint64) *cellRunner {
	return &cellRunner{
		seed: seed, spec: experiments.SRc(4), rho: 0.85,
		roundOps: 200000, batch: 5000,
		golden: goldenCellSR4,
	}
}

func newCellFlowlet(seed uint64) *cellRunner {
	return &cellRunner{
		seed:     seed,
		cluster:  experiments.ClusterConfig{Feedback: feedback.Config{Enabled: true, Interval: 100 * time.Millisecond}},
		spec:     experiments.FlowletPolicy(0),
		rho:      0.85,
		closeAck: true,
		roundOps: 200000, batch: 5000,
		golden: goldenCellFlowlet,
	}
}

// fig2Runner is what `srlb-bench -experiment fig2` does: calibrate λ0,
// then sweep PaperPolicies × ρ on one worker. A round is the whole
// thing; its batches are the sweep's cells, timed at Progress callbacks.
type fig2Runner struct {
	seed    uint64
	servers int
	queries int
	rhos    []float64
	// minImprovement is the sanity anchor on SR4 vs RR at ρ=0.88.
	minImprovement float64

	cal         experiments.CalibrationResult
	calWall     time.Duration
	sweepWall   time.Duration
	res         experiments.Fig2Result
	improvement float64
	refused     int
	err         error
}

func newFig2(seed uint64) *fig2Runner {
	rhos := make([]float64, 12)
	for i := range rhos {
		rhos[i] = 0.08 * float64(i+1)
	}
	return &fig2Runner{seed: seed, servers: 12, queries: 20000, rhos: rhos, minImprovement: 1.5}
}

func (f *fig2Runner) opName() string       { return "query" }
func (f *fig2Runner) spans() bool          { return false }
func (f *fig2Runner) defaultOps() int      { return 0 }
func (f *fig2Runner) warmupOps() int       { return 0 }
func (f *fig2Runner) traceOps(float64) int { return 0 }
func (f *fig2Runner) cluster(stream uint64) experiments.ClusterConfig {
	return experiments.ClusterConfig{Seed: deriveSeed(f.seed, stream), Servers: f.servers}
}

// setup reports the cluster build time: the sweep pays it once per cell
// and per calibration probe inside its timed window, and nothing else
// happens before the first timed op.
func (f *fig2Runner) setup() float64 {
	return clusterBuildSeconds(f.cluster(0), experiments.RR())
}

func (f *fig2Runner) round(p *pass, tr *tracer, stream uint64, _ int) {
	cluster := f.cluster(stream)
	t0 := time.Now()
	f.cal = experiments.Calibrate(experiments.CalibrationConfig{Cluster: cluster, Queries: f.queries, Workers: 1})
	f.calWall = time.Since(t0)
	last := time.Now()
	f.res = experiments.RunFig2(experiments.Fig2Config{
		Cluster: cluster, Lambda0: f.cal.Lambda0, Rhos: f.rhos, Queries: f.queries, Workers: 1,
		Progress: func(string) {
			now := time.Now()
			p.batchNS = append(p.batchNS, float64(now.Sub(last))/float64(f.queries))
			if tr != nil {
				// One span per cell, chained in completion order.
				tr.record(layerExperiments, classCell, 0, last, now, 0)
			}
			last = now
		},
	})
	wall := time.Since(t0)
	f.sweepWall = wall - f.calWall
	p.wall += wall
	p.ops += int64((len(f.cal.Probes) + len(f.res.Cells)) * f.queries)

	// Refusals are the simulated outcome under study (overload cells
	// refuse by design); an op fails only if it never reached a terminal
	// outcome.
	f.refused = 0
	for _, probe := range f.cal.Probes {
		p.failed += int64(probe.Unfinished)
	}
	for _, cell := range f.res.Cells {
		if cell.Err != nil && f.err == nil {
			f.err = fmt.Errorf("fig2 cell %s: %w", cell.Name, cell.Err)
			continue
		}
		out := cell.Outcome
		p.failed += int64(out.Unfinished)
		f.refused += out.Refused
		if got := out.RT.Count() + out.Refused + out.Unfinished; got != f.queries && f.err == nil {
			f.err = fmt.Errorf("fig2 cell %s: conservation: %d outcomes for %d queries", cell.Name, got, f.queries)
		}
	}
	imp, err := f.res.Improvement("SR 4", 0.88)
	f.improvement = imp
	if f.err == nil {
		if err != nil {
			f.err = err
		} else if imp < f.minImprovement {
			f.err = fmt.Errorf("fig2: SR4 vs RR at rho=0.88 is %.2fx, below the %.1fx sanity anchor", imp, f.minImprovement)
		}
	}
}

// digest hashes every cell's outcome, in sweep order.
func (f *fig2Runner) digest() uint64 { return sweepDigest(f.res.Cells) }

func sweepDigest(cells []experiments.CellResult) uint64 {
	var d uint64
	for _, cell := range cells {
		out := cell.Outcome
		d = d*1099511628211 ^ outcomeDigest(out.RT, uint64(out.Refused), uint64(out.Unfinished))
	}
	return d & (1<<48 - 1)
}

// verify reports the first failed check of the sweeps run, and then
// checks the pinned outcome: RR and SR4 at ρ = 0.88 of the theoretical
// capacity, at pinnedSeed, must produce the digest and the exact
// improvement ratio golden.go records.
func (f *fig2Runner) verify() error {
	if f.err != nil {
		return f.err
	}
	cluster := experiments.ClusterConfig{Seed: pinnedSeed, Servers: 12}
	res := experiments.RunFig2(experiments.Fig2Config{
		Cluster: cluster, Lambda0: cluster.TheoreticalCapacity(), Rhos: []float64{0.88},
		Policies: []experiments.PolicySpec{experiments.RR(), experiments.SRc(4)},
		Queries:  pinnedQueries, Workers: 1,
	})
	imp, err := res.Improvement("SR 4", 0.88)
	if err != nil {
		return err
	}
	if got := sweepDigest(res.Cells); got != goldenFig2 || imp != goldenSR4vsRR {
		return fmt.Errorf("simulated outcome moved: the pinned sweep digests to %#x with SR4/RR = %v, golden.go has %#x and %v",
			got, imp, uint64(goldenFig2), goldenSR4vsRR)
	}
	return nil
}
