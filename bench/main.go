// Command bench is the repository's benchmark: five workloads, the
// end-to-end metrics a user of the simulator sees, and a traced run that
// attributes cost to layers. See README.md in this directory.
//
// The driver form runs one workload and prints one JSON object as the
// last line of standard output:
//
//	bench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//
// Without --workload it runs every workload, untraced then traced,
// prints every metric by name with its unit, and writes results.json and
// trace.json to bench/out. With -agree it runs the untraced set twice and
// fails when the two disagree by more than a metric's own bound.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"time"
)

// runner is one workload's machinery. Rounds are whole units of work (a
// simulated cell, a sweep, a group of packet batches); a pass runs rounds
// back to back and never cuts one short, so every op that is started is
// finished and accounted.
type runner interface {
	// opName says what one op is.
	opName() string
	// setup builds whatever the first round starts from and returns the
	// set-up time in seconds (a median when a build is cheap enough to
	// repeat).
	setup() float64
	// round runs one round of about ops ops into p. tr is nil on untraced
	// passes. stream selects the round's seed stream.
	round(p *pass, tr *tracer, stream uint64, ops int)
	// defaultOps is the round size of the end-to-end pass, warmupOps that
	// of the untimed warm-up, traceOps(seconds) the fixed size of the
	// traced pass (fixed so that its exact counts repeat for a seed).
	defaultOps() int
	warmupOps() int
	traceOps(seconds float64) int
	// spans reports whether tracing adds anything to a round. Where it
	// does not (fig2_sweep is traced at cell granularity, from the
	// timestamps its untraced pass takes anyway) the traced pass is its own
	// reference and layers gets it twice.
	spans() bool
	// layers fills the per-layer metrics from an untraced reference pass
	// and a traced pass over the same inputs, and returns the cost ledger
	// (nil where the workload has none).
	layers(m *metricSet, ref, traced *pass, tr *tracer) *ledger
	// verify runs the end-of-run correctness checks.
	verify() error
}

type workload struct {
	name string
	new  func(seed uint64) runner
}

var workloads = []workload{
	{"cell_sr4_rho85", func(seed uint64) runner { return newCellSR4(seed) }},
	{"cell_flowlet_fb", func(seed uint64) runner { return newCellFlowlet(seed) }},
	{"fig2_sweep", func(seed uint64) runner { return newFig2(seed) }},
	{"dispatch_steered", func(seed uint64) runner { return newSteered(seed) }},
	{"dispatch_churn", func(seed uint64) runner { return newChurn(seed) }},
}

func findWorkload(name string) (workload, bool) {
	for _, w := range workloads {
		if w.name == name {
			return w, true
		}
	}
	return workload{}, false
}

// Seed streams of the passes: every round of every pass draws from its
// own stream, so the traced pass's inputs do not depend on how many
// rounds the clock let the untraced pass run. The reference pass and the
// traced pass share one: same inputs, with and without spans.
const (
	streamWarmup = 1 << 32
	streamTimed  = 2 << 32
	streamFixed  = 3 << 32
)

// timedPass runs rounds until the clock passes the window.
func timedPass(r runner, seconds float64) *pass {
	p := &pass{}
	mark := markMem()
	window := time.Duration(seconds * float64(time.Second))
	for i := uint64(0); i == 0 || p.wall < window; i++ {
		r.round(p, nil, streamTimed+i, r.defaultOps())
	}
	p.mem = mark.since()
	p.heapLive = liveHeap()
	return p
}

// fixedPass runs one round of a fixed size.
func fixedPass(r runner, tr *tracer, stream uint64, ops int) *pass {
	p := &pass{}
	mark := markMem()
	r.round(p, tr, stream, ops)
	p.mem = mark.since()
	return p
}

// result is what one run of one workload reports.
type result struct {
	Workload  string                 `json:"workload"`
	Seed      uint64                 `json:"seed"`
	Op        string                 `json:"op"`
	Correct   bool                   `json:"correct"`
	Attempted int64                  `json:"attempted"`
	Failed    int64                  `json:"failed"`
	Batches   int                    `json:"batches"`
	WindowS   float64                `json:"window_s"`
	Metrics   map[string]metricValue `json:"metrics"`
	Ledger    *ledger                `json:"ledger,omitempty"`
	Error     string                 `json:"error,omitempty"`

	trace *traceWorkload
}

// runUntraced measures the end-to-end metrics: no wrapper, tap or hook
// beyond the completion counter that times the batches.
func runUntraced(decls []metricDecl, w workload, seed uint64, seconds float64) result {
	r := w.new(seed)
	m := newMetricSet(decls)
	m.set("setup_s", r.setup())
	warmUp(r)
	p := timedPass(r, seconds)
	ops := float64(p.ops)
	m.set("ops_per_s", ops/p.wall.Seconds())
	m.set("op_ns_p50", quantile(p.batchNS, 0.5))
	m.set("allocs_per_op", float64(p.mem.mallocs)/ops)
	m.set("bytes_per_op", float64(p.mem.bytes)/ops)
	m.set("heap_live_mb", float64(p.heapLive)/1e6)
	res := result{
		Workload: w.name, Seed: seed, Op: r.opName(),
		Attempted: p.ops, Failed: p.failed, Batches: len(p.batchNS), WindowS: p.wall.Seconds(),
		Metrics: m.done(true),
	}
	res.finish(r.verify())
	runtime.KeepAlive(r)
	return res
}

// warmUp runs the untimed warm-up round.
func warmUp(r runner) {
	if n := r.warmupOps(); n > 0 {
		r.round(&pass{}, nil, streamWarmup, n)
	}
}

// runTraced measures the per-layer metrics: an untraced reference pass
// and a traced pass, then the isolated unit costs at the shape the traced
// pass observed. Each of the two passes runs on a runner of its own,
// built and warmed from the same seed, so they start from the same state
// and handle the same inputs.
func runTraced(decls []metricDecl, w workload, seed uint64, seconds float64) result {
	r := w.new(seed)
	m := newMetricSet(decls)
	res := result{Workload: w.name, Seed: seed, Op: r.opName()}
	ops := r.traceOps(seconds)
	var ref *pass
	var refErr error
	if r.spans() {
		plain := w.new(seed)
		plain.setup()
		warmUp(plain)
		ref = fixedPass(plain, nil, streamFixed, ops)
		res.Failed = ref.failed
		refErr = plain.verify()
	}
	r.setup()
	warmUp(r)
	tr := newTracer()
	traced := fixedPass(r, tr, streamFixed, ops)
	if ref == nil {
		ref = traced
	}
	res.Ledger = r.layers(m, ref, traced, tr)
	tw := tr.export(w.name, seed)
	res.trace = &tw
	res.Attempted, res.Failed = traced.ops, res.Failed+traced.failed
	res.Batches, res.WindowS = len(traced.batchNS), traced.wall.Seconds()
	res.Metrics = m.done(false)
	err := r.verify()
	if err == nil {
		err = refErr
	}
	res.finish(err)
	runtime.KeepAlive(r)
	return res
}

func (res *result) finish(err error) {
	res.Correct = err == nil && res.Failed == 0
	if err != nil {
		res.Error = err.Error()
	} else if res.Failed != 0 {
		res.Error = fmt.Sprintf("%d of %d ops failed", res.Failed, res.Attempted)
	}
}

// driverLine is the one-object summary the driver parses.
func (res result) driverLine() string {
	out := struct {
		Correct   bool                   `json:"correct"`
		Attempted int64                  `json:"attempted"`
		Failed    int64                  `json:"failed"`
		Metrics   map[string]metricValue `json:"metrics"`
	}{res.Correct, res.Attempted, res.Failed, res.Metrics}
	buf, err := json.Marshal(out)
	if err != nil {
		panic(err)
	}
	return string(buf)
}

// printMetrics lists a result's metrics by name with unit, in
// declaration order.
func printMetrics(res result, decls []metricDecl) {
	fmt.Printf("%s  seed=%d  op=%s  attempted=%d failed=%d  batches=%d  window=%.2fs\n",
		res.Workload, res.Seed, res.Op, res.Attempted, res.Failed, res.Batches, res.WindowS)
	for _, d := range decls {
		fmt.Printf("  %-32s %16.6g %s\n", d.Name, res.Metrics[d.Name].Value, d.Unit)
	}
	if res.Error != "" {
		fmt.Printf("  CHECK FAILED: %s\n", res.Error)
	}
}

func printLedger(l *ledger) {
	if l == nil {
		return
	}
	fmt.Printf("  ledger: %.1f ns/op end to end, %.1f explained (%.1f%%), residue %.1f\n",
		l.EndToEndNS, l.ExplainedNS, 100*l.ExplainedFrac, l.ResidueNS)
	for _, r := range l.Rows {
		fmt.Printf("    %-12s %10.1f ns  %5.1f%%  %s\n", r.Layer, r.NSPerOp, 100*r.NSPerOp/l.EndToEndNS, r.Basis)
	}
	for _, r := range l.Inside {
		fmt.Printf("      in core: %-10s %8.1f ns  %s\n", r.Layer, r.NSPerOp, r.Basis)
	}
}

// environment is recorded with every results.json.
type environment struct {
	GoVersion  string `json:"go_version"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	NumCPU     int    `json:"nproc"`
	Commit     string `json:"commit"`
	When       string `json:"when"`
}

func currentEnvironment() environment {
	return environment{
		GoVersion: runtime.Version(), GOMAXPROCS: runtime.GOMAXPROCS(0), NumCPU: runtime.NumCPU(),
		Commit: gitCommit(), When: time.Now().UTC().Format(time.RFC3339),
	}
}

// gitCommit reads the checked-out commit from .git without running git
// (the driver's checkout is not a repository: "unknown" there).
func gitCommit() string {
	head, err := os.ReadFile(filepath.Join(".git", "HEAD"))
	if err != nil {
		return "unknown"
	}
	ref := strings.TrimSpace(string(head))
	if !strings.HasPrefix(ref, "ref: ") {
		return ref
	}
	buf, err := os.ReadFile(filepath.Join(".git", strings.TrimPrefix(ref, "ref: ")))
	if err != nil {
		return "unknown"
	}
	return strings.TrimSpace(string(buf))
}

func writeJSON(dir, name string, v any) error {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	buf, err := json.MarshalIndent(v, "", " ")
	if err != nil {
		return err
	}
	return os.WriteFile(filepath.Join(dir, name), append(buf, '\n'), 0o644)
}

func writeTrace(dir string, traces []traceWorkload) error {
	return writeJSON(dir, "trace.json", struct {
		Workloads []traceWorkload `json:"workloads"`
	}{traces})
}

// outDir is where the report form and the traced driver form leave
// results.json and trace.json, relative to the repository root.
const outDir = "bench/out"

// runAll is the full run: every workload untraced, then traced.
func runAll(spec benchmarkSpec, seed uint64, seconds float64) bool {
	ok := true
	var untraced, traced []result
	var traces []traceWorkload
	for _, w := range workloads {
		res := runUntraced(spec.EndToEnd, w, seed, seconds)
		printMetrics(res, spec.EndToEnd)
		untraced = append(untraced, res)
		ok = ok && res.Correct
	}
	for _, w := range workloads {
		res := runTraced(spec.PerLayer, w, seed, seconds)
		printMetrics(res, spec.PerLayer)
		printLedger(res.Ledger)
		traced = append(traced, res)
		traces = append(traces, *res.trace)
		ok = ok && res.Correct
	}
	err := writeJSON(outDir, "results.json", struct {
		Environment environment `json:"environment"`
		Seconds     float64     `json:"seconds"`
		EndToEnd    []result    `json:"end_to_end"`
		PerLayer    []result    `json:"per_layer"`
	}{currentEnvironment(), seconds, untraced, traced})
	if err == nil {
		err = writeTrace(outDir, traces)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		return false
	}
	fmt.Printf("wrote %s and %s\n", filepath.Join(outDir, "results.json"), filepath.Join(outDir, "trace.json"))
	return ok
}

// runAgree runs the untraced set twice and compares every end-to-end
// metric against its own bound.
func runAgree(spec benchmarkSpec, seed uint64, seconds float64) bool {
	ok := true
	var sets [2][]result
	for i := range sets {
		for _, w := range workloads {
			res := runUntraced(spec.EndToEnd, w, seed, seconds)
			ok = ok && res.Correct
			sets[i] = append(sets[i], res)
		}
	}
	fmt.Printf("%-18s %-14s %16s %16s %9s %7s\n", "workload", "metric", "first", "second", "spread", "bound")
	for wi, w := range workloads {
		for _, d := range spec.EndToEnd {
			a, b := sets[0][wi].Metrics[d.Name].Value, sets[1][wi].Metrics[d.Name].Value
			spread := math.Abs(b-a) / a
			verdict := ""
			if spread > d.Bound {
				verdict = "  DISAGREE"
				ok = false
			}
			fmt.Printf("%-18s %-14s %16.6g %16.6g %8.2f%% %6.1f%%%s\n", w.name, d.Name, a, b, 100*spread, 100*d.Bound, verdict)
		}
	}
	return ok
}

func main() {
	var (
		name    = flag.String("workload", "", "run one workload in driver form (default: all, with reports)")
		seed    = flag.Uint64("seed", 1, "seed every generated input derives from")
		seconds = flag.Float64("seconds", 12, "length of the timed window")
		traceOn = flag.Int("trace", 0, "0: end-to-end metrics, untraced; 1: per-layer metrics from the traced pass")
		agree   = flag.Bool("agree", false, "run the end-to-end set twice and compare against the bounds")
	)
	flag.Parse()
	if *seconds <= 0 || flag.NArg() > 0 {
		fmt.Fprintln(os.Stderr, "bench: -seconds must be positive and there are no positional arguments")
		os.Exit(2)
	}
	spec, err := loadSpec(specPath)
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		os.Exit(2)
	}
	switch {
	case *agree:
		if !runAgree(spec, *seed, *seconds) {
			os.Exit(1)
		}
	case *name == "":
		if !runAll(spec, *seed, *seconds) {
			os.Exit(1)
		}
	default:
		w, ok := findWorkload(*name)
		if !ok {
			fmt.Fprintf(os.Stderr, "bench: unknown workload %q\n", *name)
			os.Exit(2)
		}
		var res result
		if *traceOn != 0 {
			res = runTraced(spec.PerLayer, w, *seed, *seconds)
			if err := writeTrace(outDir, []traceWorkload{*res.trace}); err != nil {
				fmt.Fprintln(os.Stderr, "bench:", err)
				os.Exit(1)
			}
		} else {
			res = runUntraced(spec.EndToEnd, w, *seed, *seconds)
		}
		if res.Error != "" {
			fmt.Fprintf(os.Stderr, "bench: %s: %s\n", w.name, res.Error)
		}
		fmt.Println(res.driverLine())
		if !res.Correct {
			os.Exit(1)
		}
	}
}
