package experiments

import (
	"context"
	"fmt"
	"reflect"
	"strings"
	"sync"
)

// CalibrationConfig drives the §V-A bootstrap: "identifying λ0, the max
// rate sustainable by the 12-servers swarm, i.e. the smallest value of λ
// for which some TCP connections were dropped".
//
// It keeps Base's fields flat for the reason Fig2Config does (see RunFig2).
type CalibrationConfig struct {
	Cluster ClusterConfig
	// Spec is the policy used while probing (the paper uses the plain
	// random balancer; default RR).
	Spec PolicySpec
	// Queries per probe run (default 20000, the paper's batch size).
	Queries int
	// ProbeFan is the number of interior rates probed concurrently per
	// refinement round (default 4). Each round splits the bracket into
	// ProbeFan+1 intervals and keeps the one where the drop indicator
	// flips, so the bracket shrinks by (ProbeFan+1)× per round instead
	// of the serial bisection's 2×. ProbeFan = 1 recovers the classic
	// serial bisection exactly, probe for probe.
	ProbeFan int
	// Workers bounds concurrent probe runs (0 = GOMAXPROCS, 1 serial).
	Workers int
}

func (cfg CalibrationConfig) withDefaults() CalibrationConfig {
	base := Base{Cluster: cfg.Cluster, Queries: cfg.Queries}.withDefaults()
	cfg.Cluster, cfg.Queries = base.Cluster, base.Queries
	if cfg.Spec.NewAgent == nil {
		cfg.Spec = RR()
	}
	if cfg.ProbeFan <= 0 {
		cfg.ProbeFan = 4
	}
	return cfg
}

// CalibrationResult reports the measured λ0.
type CalibrationResult struct {
	// Lambda0 is the measured drop-onset rate (queries/sec).
	Lambda0 float64
	// Theoretical is the fluid-limit capacity for reference.
	Theoretical float64
	// Probes lists every (rate, refused) probe run. Within a concurrent
	// round probes are recorded in ascending rate order, so the list is
	// deterministic regardless of worker scheduling.
	Probes []CalibrationProbe
	// Err is set, and Lambda0 zero, when no probe refused a connection
	// at any rate the search tried: the cluster's queues hold a whole
	// probe's queries, so no drop onset exists at this probe size.
	Err error
}

// calRelTol is the search's relative stopping width.
const calRelTol = 0.01

// maxWidenings bounds the search's upward ladder: Hi doubled this many
// times is ~1500× the theoretical capacity on the default bracket, and a
// cluster that refuses nothing there never will — each probe's queries
// all fit in its queues at once.
const maxWidenings = 10

// CalibrationProbe is one probe run.
type CalibrationProbe struct {
	RatePerSec float64
	Refused    int
	Unfinished int
}

// Calibrate measures λ0 by a speculative-parallel ladder search: each
// refinement round probes ProbeFan interior rates of the bracket
// concurrently (every probe is an independent, deterministic
// simulation), then keeps the sub-interval where the drop indicator
// flips. The result is a pure function of the config — worker count and
// scheduling cannot change it — and ProbeFan = 1 reproduces the classic
// serial bisection exactly; a larger fan lands within one bisection
// tolerance of it in ~ProbeFan× fewer serial rounds.
func Calibrate(cfg CalibrationConfig) CalibrationResult {
	cfg = cfg.withDefaults()
	res := CalibrationResult{Theoretical: cfg.Cluster.TheoreticalCapacity()}

	// probeAll runs one round of probes on the Runner — each probe is
	// RunPoisson's cell at its rate — and records them in ascending rate
	// order, the Runner's input order.
	probeAll := func(rates []float64) []CalibrationProbe {
		cells := make([]Scenario, len(rates))
		for i, rate := range rates {
			cells[i] = Scenario{
				Cluster: cfg.Cluster, Policy: cfg.Spec, Load: 1,
				Workload: OneService(PoissonService{Lambda0: rate, Queries: cfg.Queries}),
			}
		}
		results, _ := Runner{Workers: cfg.Workers}.Run(context.Background(), cells)
		out := make([]CalibrationProbe, len(rates))
		for i, c := range results {
			out[i] = CalibrationProbe{RatePerSec: rates[i], Refused: c.Outcome.Refused, Unfinished: c.Outcome.Unfinished}
		}
		res.Probes = append(res.Probes, out...)
		return out
	}
	drops := func(rate float64) bool {
		return probeAll([]float64{rate})[0].Refused > 0
	}

	// The search starts from 0.5× and 1.5× the theoretical capacity, and
	// widens the bracket if that misses the onset (rare, so this stays a
	// serial ladder).
	lo, hi := 0.5*res.Theoretical, 1.5*res.Theoretical
	for drops(lo) && lo > 1 {
		hi = lo
		lo /= 2
	}
	for widened := 0; !drops(hi); widened++ {
		if widened == maxWidenings {
			res.Err = fmt.Errorf("calibrate: no probe refused a connection up to %.0f q/s (%.0fx the theoretical capacity): "+
				"the cluster queues all %d queries of a probe", hi, hi/res.Theoretical, cfg.Queries)
			return res
		}
		lo = hi
		hi *= 2
	}
	// K-section refinement: probe ProbeFan evenly spaced interior rates
	// concurrently, then shrink to the sub-interval where the indicator
	// flips. Like the serial bisection this assumes the drop indicator
	// is monotone in rate; where simulation noise locally violates that,
	// both searches land inside the same onset band (within calRelTol).
	for (hi-lo)/hi > calRelTol {
		fan := cfg.ProbeFan
		pts := make([]float64, fan)
		step := (hi - lo) / float64(fan+1)
		for i := range pts {
			pts[i] = lo + float64(i+1)*step
		}
		round := probeAll(pts)
		newLo, newHi := lo, hi
		for i, p := range round {
			if p.Refused > 0 {
				newHi = pts[i]
				break
			}
			newLo = pts[i]
		}
		lo, hi = newLo, newHi
	}
	res.Lambda0 = hi
	return res
}

// fingerprint identifies everything the calibration outcome depends on:
// the (defaulted) cluster topology — including every per-server
// override — the probing policy, and the search parameters. The policy
// is keyed by name, candidate count, and the NewAgent function's code
// pointer, so two same-named policies built from different function
// literals do not alias. (Two closures of the same literal capturing
// different state still would; keep calibration policies distinct, or
// rely on the default — plain RR — which never collides.)
func (cfg CalibrationConfig) fingerprint() string {
	cfg = cfg.withDefaults()
	var b strings.Builder
	cl := cfg.Cluster
	fmt.Fprintf(&b, "seed=%d;servers=%d;chash=%t;server=%+v",
		cl.Seed, cl.Servers, cl.ConsistentHash, cl.Server)
	if cl.Replicas > 1 || cl.MissFallback || len(cl.Events) > 0 {
		fmt.Fprintf(&b, ";replicas=%d;fallback=%t;events=%+v",
			cl.Replicas, cl.MissFallback, cl.Events)
	}
	if cl.ServerOverride != nil {
		for i := 0; i < cl.Servers; i++ {
			fmt.Fprintf(&b, ";o%d=%+v", i, cl.ServerOverride(i))
		}
	}
	fmt.Fprintf(&b, ";spec=%s/%d/%x;q=%d;fan=%d",
		cfg.Spec.Name, cfg.Spec.Candidates, reflect.ValueOf(cfg.Spec.NewAgent).Pointer(),
		cfg.Queries, cfg.ProbeFan)
	return b.String()
}

// calCache memoizes calibrations per cluster fingerprint for the life
// of the process. Sound because Calibrate is a pure function of its
// config: same fingerprint ⇒ same λ0, probe for probe.
var calCache sync.Map // fingerprint → *calEntry

type calEntry struct {
	once sync.Once
	res  CalibrationResult
}

// CalibrateCached is Calibrate behind a process-wide cache keyed by the
// config fingerprint: the first caller per topology pays for the
// probes, every later caller — another figure, another ablation study
// on the same cluster — gets the memoized result. Concurrent callers
// with the same fingerprint calibrate once (the others block on the
// first).
func CalibrateCached(cfg CalibrationConfig) CalibrationResult {
	v, _ := calCache.LoadOrStore(cfg.fingerprint(), &calEntry{})
	e := v.(*calEntry)
	e.once.Do(func() { e.res = Calibrate(cfg) })
	return e.res
}

// TSV is the calibration as one table, a row of (rate, refused,
// unfinished) per probe.
func (r CalibrationResult) TSV() TSV {
	return oneTable(fmt.Sprintf("lambda0 bootstrap (SS V-A): measured %.1f q/s, theoretical %.1f q/s", r.Lambda0, r.Theoretical),
		[]column[CalibrationProbe]{
			{"rate_qps", func(p CalibrationProbe) string { return fmt.Sprintf("%.1f", p.RatePerSec) }},
			{"refused", func(p CalibrationProbe) string { return fmt.Sprint(p.Refused) }},
			{"unfinished", func(p CalibrationProbe) string { return fmt.Sprint(p.Unfinished) }},
		}, r.Probes)
}
