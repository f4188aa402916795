package experiments

import (
	"fmt"
	"io"
	"reflect"
	"runtime"
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
	// Lo, Hi bracket the search in queries/sec. Defaults: 0.5× and 1.5×
	// the theoretical capacity.
	Lo, Hi float64
	// RelTol is the search's relative stopping width (default 1%).
	RelTol float64
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
	theo := cfg.Cluster.TheoreticalCapacity()
	if cfg.Lo == 0 {
		cfg.Lo = 0.5 * theo
	}
	if cfg.Hi == 0 {
		cfg.Hi = 1.5 * theo
	}
	if cfg.RelTol == 0 {
		cfg.RelTol = 0.01
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
}

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
// serial bisection exactly.
func Calibrate(cfg CalibrationConfig) CalibrationResult {
	cfg = cfg.withDefaults()
	res := CalibrationResult{Theoretical: cfg.Cluster.TheoreticalCapacity()}

	probeOne := func(rate float64) CalibrationProbe {
		run := RunPoisson(cfg.Cluster, cfg.Spec, rate, cfg.Queries, PoissonHooks{})
		return CalibrationProbe{RatePerSec: rate, Refused: run.Refused, Unfinished: run.Unfinished}
	}
	// probeAll runs one round of probes on the worker pool and records
	// them in ascending rate order.
	probeAll := func(rates []float64) []CalibrationProbe {
		out := make([]CalibrationProbe, len(rates))
		w := cfg.Workers
		if w <= 0 {
			w = runtime.GOMAXPROCS(0)
		}
		if w > len(rates) {
			w = len(rates)
		}
		if w <= 1 {
			for i, r := range rates {
				out[i] = probeOne(r)
			}
		} else {
			var wg sync.WaitGroup
			next := make(chan int)
			for ; w > 0; w-- {
				wg.Add(1)
				go func() {
					defer wg.Done()
					for i := range next {
						out[i] = probeOne(rates[i])
					}
				}()
			}
			for i := range rates {
				next <- i
			}
			close(next)
			wg.Wait()
		}
		res.Probes = append(res.Probes, out...)
		return out
	}
	drops := func(rate float64) bool {
		return probeAll([]float64{rate})[0].Refused > 0
	}

	lo, hi := cfg.Lo, cfg.Hi
	// Widen the bracket if mis-specified (rare on the default 0.5×/1.5×
	// theoretical bracket, so this stays a serial ladder).
	for drops(lo) && lo > 1 {
		hi = lo
		lo /= 2
	}
	for !drops(hi) {
		lo = hi
		hi *= 2
	}
	// K-section refinement: probe ProbeFan evenly spaced interior rates
	// concurrently, then shrink to the sub-interval where the indicator
	// flips. Like the serial bisection this assumes the drop indicator
	// is monotone in rate; where simulation noise locally violates that,
	// both searches land inside the same onset band (within RelTol).
	for (hi-lo)/hi > cfg.RelTol {
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
	fmt.Fprintf(&b, "seed=%d;servers=%d;clients=%d;chash=%t;server=%+v",
		cl.Seed, cl.Servers, cl.Clients, cl.ConsistentHash, cl.Server)
	if cl.Replicas > 1 || cl.MissFallback || len(cl.Events) > 0 {
		fmt.Fprintf(&b, ";replicas=%d;fallback=%t;events=%+v",
			cl.Replicas, cl.MissFallback, cl.Events)
	}
	if cl.ServerOverride != nil {
		for i := 0; i < cl.Servers; i++ {
			fmt.Fprintf(&b, ";o%d=%+v", i, cl.ServerOverride(i))
		}
	}
	fmt.Fprintf(&b, ";spec=%s/%d/%x;q=%d;lo=%g;hi=%g;tol=%g;fan=%d",
		cfg.Spec.Name, cfg.Spec.Candidates, reflect.ValueOf(cfg.Spec.NewAgent).Pointer(),
		cfg.Queries, cfg.Lo, cfg.Hi, cfg.RelTol, cfg.ProbeFan)
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

// WriteTSV renders the calibration as rows of (rate, refused).
func (r CalibrationResult) WriteTSV(w io.Writer) error {
	t := tsvWriter{w: w}
	t.printf("# lambda0 bootstrap (SS V-A): measured %.1f q/s, theoretical %.1f q/s\n", r.Lambda0, r.Theoretical)
	t.printf("rate_qps\trefused\tunfinished\n")
	for _, p := range r.Probes {
		t.printf("%.1f\t%d\t%d\n", p.RatePerSec, p.Refused, p.Unfinished)
	}
	return t.err
}
