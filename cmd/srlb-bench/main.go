// Command srlb-bench regenerates every evaluation artifact of the SRLB
// paper (figures 2–8), the §V-A λ0 calibration, the ablation studies,
// and the topology extensions (bursty arrivals, LB-replica failover,
// pool churn, the concurrent multi-service mix), writing one TSV per
// artifact plus a human-readable summary to stdout.
//
// Usage:
//
//	srlb-bench -experiment all -out results/     # everything below not marked "only when named"
//	srlb-bench -experiment calibrate             # the SS V-A lambda0 bootstrap alone (only when named)
//	srlb-bench -experiment fig2 -queries 20000 -seeds 5
//	srlb-bench -experiment fig3                  # response-time CDF at rho=0.88 (fig5: at rho=0.61)
//	srlb-bench -experiment fig4                  # server-load mean + fairness timeline
//	srlb-bench -experiment fig5
//	srlb-bench -experiment wiki -compress 24     # 24h replayed as 1 sim-hour (also: fig6, fig7, fig8)
//	srlb-bench -experiment ablations             # the parameter ablations, then retransmit and hetero
//	srlb-bench -experiment retransmit            # tcp_abort_on_overflow vs SYN retransmission alone
//	srlb-bench -experiment hetero                # heterogeneous cluster alone
//	srlb-bench -experiment failover -seeds 5     # kill an LB replica mid-run
//	srlb-bench -experiment resilience -seeds 5   # warm handoff vs chash vs stateless under kill/rack loss
//	srlb-bench -experiment churn                 # drain+re-add servers under load
//	srlb-bench -experiment bursty                # fig2 grid under on/off MMPP arrivals
//	srlb-bench -experiment multiservice -seeds 5 # web+wiki+batch VIPs sharing the LB
//	srlb-bench -experiment interference -seeds 5 # web+batch contending on ONE shared pool
//	srlb-bench -experiment policies -seeds 5     # load-feedback scheme ablation (random2/chash2/wleastload/flowlet)
//	srlb-bench -experiment rhogrid               # web-rho x batch-rho matrix, adaptive replication
//	srlb-bench -experiment vipscale              # dispatch ns/pkt as services sweep 100 -> 10k
//	srlb-bench -experiment horizon               # 10^8-query constant-memory soak (only when named)
//
// With -seeds N > 1 every Poisson-family experiment (calibrate, figures
// 2–5, ablations, hetero, bursty, failover, churn, multiservice,
// interference, policies) replicates its cells across N derived seeds and
// reports mean ± 95% CI; each sweep's BENCH_*.json (see
// docs/RESULTS_SCHEMA.md) carries the per-cell aggregates — for multi-VIP
// cells, with one per-VIP row per service inside each cell, each carrying
// that service's own resolved load. The wiki replay (figures 6–8) stays
// single-seed — replicate it through the Sweep API as in
// examples/wikipedia.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"strconv"
	"strings"
	"time"

	"srlb"
)

// distJSON serializes a srlb.Dist: the across-seed mean of a per-seed
// statistic with its Student-t 95% half-width (see docs/RESULTS_SCHEMA.md).
type distJSON struct {
	Mean float64 `json:"mean"`
	CI95 float64 `json:"ci95"`
	Min  float64 `json:"min"`
	Max  float64 `json:"max"`
}

// ReportedCI95 maps the "unknown interval" sentinel (+Inf at n < 2) to
// 0 — json.Marshal rejects non-finite values, and the schema's
// convention is that a zero ci95 reads "unknown".
func distMS(d srlb.Dist) distJSON {
	return distJSON{Mean: d.Mean * 1e3, CI95: d.ReportedCI95() * 1e3, Min: d.Min * 1e3, Max: d.Max * 1e3}
}

func dist(d srlb.Dist) distJSON {
	return distJSON{Mean: d.Mean, CI95: d.ReportedCI95(), Min: d.Min, Max: d.Max}
}

// outcomeJSON is the replicated-metric block a cell and each of its
// per-VIP rows carry alike; embedded, its fields serialize in place.
type outcomeJSON struct {
	MeanMS     distJSON `json:"mean_ms"`
	P50MS      distJSON `json:"p50_ms"`
	P95MS      distJSON `json:"p95_ms"`
	P99MS      distJSON `json:"p99_ms"`
	OKFraction distJSON `json:"ok_fraction"`
	Refused    distJSON `json:"refused"`
}

func outcome(o srlb.OutcomeStats) outcomeJSON {
	return outcomeJSON{
		MeanMS:     distMS(o.Mean.Dist),
		P50MS:      distMS(o.Median.Dist),
		P95MS:      distMS(o.P95.Dist),
		P99MS:      distMS(o.P99.Dist),
		OKFraction: dist(o.OKFraction.Dist),
		Refused:    dist(o.Refused.Dist),
	}
}

// sweepCellJSON is one cell of a BENCH_*.json document: a logical
// (policy, load) cell aggregated across the replication axis, with summed
// host wall-clock, so successive commits can track both the simulated
// results and the harness's own speed.
type sweepCellJSON struct {
	Policy   string  `json:"policy"`
	Workload string  `json:"workload"`
	Variant  string  `json:"variant,omitempty"`
	Load     float64 `json:"load"`
	// LoadVec is the per-service load vector of a grid-sweep cell
	// (schema v9); absent for scalar sweeps.
	LoadVec []float64 `json:"load_vec,omitempty"`
	// StopReason is the adaptive replication controller's per-cell
	// verdict (schema v9: "converged" or "max-seeds"); absent under
	// fixed replication. N and Seeds then vary per cell.
	StopReason string   `json:"stop_reason,omitempty"`
	N          int      `json:"n"`
	Seeds      []uint64 `json:"seeds"`
	outcomeJSON
	// VIPs is the per-service breakdown of a multi-VIP cell (schema v4+);
	// absent for single-VIP sweeps.
	VIPs   []vipCellJSON `json:"vips,omitempty"`
	WallMS float64       `json:"wall_ms"`
}

// vipCellJSON is one service's share of a multi-VIP cell.
type vipCellJSON struct {
	Name     string `json:"name"`
	Workload string `json:"workload"`
	// Load is the service's own resolved load point (schema v5): it
	// differs from the cell's load when the workload carries per-service
	// load axes (a pinned victim against a swept aggressor).
	Load    float64  `json:"load"`
	Offered distJSON `json:"offered"`
	outcomeJSON
	Unfinished distJSON `json:"unfinished"`
}

type sweepJSON struct {
	SchemaVersion int             `json:"schema_version"`
	Lambda0       float64         `json:"lambda0_qps,omitempty"`
	Workers       int             `json:"workers"`
	GOMAXPROCS    int             `json:"gomaxprocs"`
	Seeds         []uint64        `json:"seeds,omitempty"`
	TotalWallMS   float64         `json:"total_wall_ms"`
	Cells         []sweepCellJSON `json:"cells,omitempty"`
	// Tables are the experiment's row tables, each the value its TSV
	// block is written from (schema v10); absent where the TSV is only a
	// view of the cells.
	Tables []srlb.Table `json:"tables,omitempty"`
}

// sweepSchemaVersion is the BENCH_*.json schema (v10: one document
// shape, the cells plus the experiment's row tables; see
// docs/RESULTS_SCHEMA.md).
const sweepSchemaVersion = 10

func main() {
	e := &env{}
	e.declareFlags(flag.CommandLine)
	flag.Usage = func() {
		fmt.Fprintf(flag.CommandLine.Output(), "Usage of %s:\n", os.Args[0])
		flag.PrintDefaults()
		fmt.Fprintln(flag.CommandLine.Output(), `
Artifacts land in -out as TSV, plus one BENCH_<name>.json per sweep
experiment (figure 2's is BENCH_sweep.json) — the per-cell
machine-readable summary and the experiment's row tables (schema v10,
documented field-by-field in docs/RESULTS_SCHEMA.md). The topology
experiments and the bursty sweep are described in docs/TOPOLOGY.md.`)
	}
	flag.Parse()
	selected, err := e.resolve(flag.CommandLine)
	if err != nil {
		fmt.Fprintf(os.Stderr, "srlb-bench: %v\n", err)
		os.Exit(2)
	}
	if err := os.MkdirAll(e.out, 0o755); err != nil {
		fmt.Fprintf(os.Stderr, "srlb-bench: %v\n", err)
		os.Exit(1)
	}
	for _, x := range selected {
		if err := e.run(x); err != nil {
			fmt.Fprintf(os.Stderr, "srlb-bench: %v\n", err)
			os.Exit(1)
		}
	}
}

// declareFlags declares srlb-bench's flag set on fs, parsing into e.
func (e *env) declareFlags(fs *flag.FlagSet) {
	fs.StringVar(&e.experiment, "experiment", "all", experimentHelp())
	fs.StringVar(&e.out, "out", "results", "output directory for TSV artifacts")
	fs.Uint64Var(&e.seed, "seed", 1, "master RNG seed")
	fs.IntVar(&e.seedCount, "seeds", 1, "replicates per cell (derived from -seed; >1 reports mean ± 95% CI)")
	fs.IntVar(&e.base.Queries, "queries", 20000, "queries per Poisson experiment point (paper: 20000)")
	fs.IntVar(&e.base.Cluster.Servers, "servers", 12, "application servers (paper: 12)")
	fs.Float64Var(&e.compress, "compress", 24, "wiki replay time compression (1 = full 24h)")
	fs.IntVar(&e.rhoPoints, "rho-points", 24, "number of load points for fig2 (paper: 24)")
	fs.Uint64Var(&e.horizonQueries, "horizon-queries", 100_000_000, "queries for -experiment horizon (constant-memory soak)")
	fs.Float64Var(&e.horizonRho, "horizon-rho", 0.85, "normalized load for -experiment horizon")
	fs.IntVar(&e.base.Workers, "workers", 0, "parallel sweep cells (0 = GOMAXPROCS)")
	fs.Float64Var(&e.adaptive.CITarget, "ci-target", 0.2, "rhogrid: adaptive relative CI95 stop target (<= 0 runs fixed -seeds replication)")
	fs.IntVar(&e.adaptive.MaxSeeds, "max-seeds", 8, "rhogrid: adaptive per-cell replicate cap")
	fs.BoolVar(&e.verbose, "v", false, "log per-point progress")
	fs.BoolVar(&e.plot, "plot", false, "render the ASCII charts to stdout, for every experiment that has one")
	e.vipCounts = intList{100, 1000, 10000}
	fs.Var(&e.vipCounts, "vip-counts", "comma-separated service counts for -experiment vipscale")
}

// experimentHelp is the -experiment usage string, listed from the table.
func experimentHelp() string {
	var names, notes []string
	for _, x := range experiments {
		name := x.name
		if x.onlyWhenNamed {
			name += "*"
		}
		names = append(names, name)
		if len(x.also) > 0 {
			notes = append(notes, fmt.Sprintf("; %s also runs as %s", x.name, strings.Join(x.also, "|")))
		}
	}
	return strings.Join(names, "|") + "|all (* runs only when named" + strings.Join(notes, "") + ")"
}

// selectExperiments resolves an -experiment value against the table: an
// entry runs when the value is its name or one of its also values; "all"
// is every entry not marked onlyWhenNamed.
func selectExperiments(value string) []*experiment {
	var selected []*experiment
	for i := range experiments {
		x := &experiments[i]
		match := value == x.name || (value == "all" && !x.onlyWhenNamed)
		for _, a := range x.also {
			match = match || value == a
		}
		if match {
			selected = append(selected, x)
		}
	}
	return selected
}

// resolve finishes e once fs has parsed, and returns the entries to run.
// It rejects, before any work is done, what would otherwise surface as a
// panic deep inside a run or as a silent no-op: a negative count or scale,
// and an -experiment value the table does not have. Zero stays "the
// experiment's own default" wherever it meant that.
func (e *env) resolve(fs *flag.FlagSet) ([]*experiment, error) {
	for _, name := range []string{"rho-points", "queries", "servers", "seeds", "max-seeds", "compress", "horizon-rho"} {
		value := fs.Lookup(name).Value.String()
		if v, _ := strconv.ParseFloat(value, 64); v < 0 {
			return nil, fmt.Errorf("-%s must not be negative (got %s)", name, value)
		}
	}
	selected := selectExperiments(e.experiment)
	if len(selected) == 0 {
		return nil, fmt.Errorf("unknown -experiment %q; valid: %s", e.experiment, experimentHelp())
	}
	e.base.Cluster.Seed = e.seed
	// One seed means "the master seed itself" (no CI); more derive
	// well-separated streams from it.
	e.base.Seeds = []uint64{e.seed}
	if e.seedCount > 1 {
		e.base.Seeds = srlb.DeriveSeeds(e.seed, e.seedCount)
	}
	e.base.Progress = func(string) {}
	if e.verbose {
		e.base.Progress = func(s string) { fmt.Fprintln(os.Stderr, "  "+s) }
	}
	fs.Visit(func(f *flag.Flag) {
		if f.Name == "compress" {
			e.mixCompress = e.compress
		}
	})
	return selected, nil
}

// run is the driver: everything the experiments share — lazy calibration,
// banner, timing, summary lines, the JSON document, -plot, file writing —
// happens here, once.
func (e *env) run(x *experiment) error {
	if x.needsLambda0 && e.lambda0 == 0 {
		if err := e.run(&calibration); err != nil {
			return err
		}
	}
	title := x.title
	if x.titlef != nil {
		title = x.titlef(e)
	}
	fmt.Printf("== %s ==\n", title)
	start := time.Now()
	rep, err := x.run(e)
	if err == nil {
		err = e.emit(rep, time.Since(start))
	}
	if err != nil {
		return fmt.Errorf("%s: %w", title, err)
	}
	fmt.Printf("   done in %v\n", time.Since(start).Round(time.Millisecond))
	return nil
}

// emit acts on a report: summary lines, the JSON document, charts, the
// -plot rendering, files — in that order.
func (e *env) emit(rep report, wall time.Duration) error {
	for _, line := range rep.lines {
		fmt.Println("   " + line)
	}
	if rep.doc != "" {
		doc := newSweepDoc(e.lambda0, e.base.Workers, wall, rep.stats)
		doc.Tables = rep.tables
		note := fmt.Sprintf(" (schema v%d)", sweepSchemaVersion)
		if err := e.write(rep.doc, note, func(w io.Writer) error { return writeSweepDoc(w, doc) }); err != nil {
			return err
		}
	}
	for _, f := range rep.files {
		if err := e.write(f.name, "", f.write); err != nil {
			return err
		}
	}
	return nil
}

// write creates one artifact in -out and announces it; a nameless one is
// a chart, rendered to stdout under -plot.
func (e *env) write(name, note string, emit func(io.Writer) error) error {
	if name == "" {
		if !e.plot {
			return nil
		}
		return emit(os.Stdout)
	}
	path := filepath.Join(e.out, name)
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	defer f.Close()
	if err := emit(f); err != nil {
		return err
	}
	fmt.Printf("   wrote %s%s\n", path, note)
	return f.Sync()
}

// intList is a comma-separated []int flag (the vipscale count axis).
type intList []int

func (l *intList) String() string {
	if l == nil {
		return ""
	}
	s := ""
	for i, v := range *l {
		if i > 0 {
			s += ","
		}
		s += strconv.Itoa(v)
	}
	return s
}

func (l *intList) Set(s string) error {
	var out []int
	for _, part := range strings.Split(s, ",") {
		part = strings.TrimSpace(part)
		if part == "" {
			continue
		}
		v, err := strconv.Atoi(part)
		if err != nil {
			return fmt.Errorf("bad count %q: %w", part, err)
		}
		if v < 1 {
			return fmt.Errorf("count %d must be ≥ 1", v)
		}
		out = append(out, v)
	}
	if len(out) == 0 {
		return fmt.Errorf("empty count list")
	}
	*l = out
	return nil
}

// newSweepDoc starts a BENCH_*.json document (documented in
// docs/RESULTS_SCHEMA.md). With a Runner sweep behind it, it carries one
// entry per logical (policy, variant, load) cell, each with the
// n/mean/ci95 aggregates of its replicates plus the per-service breakdown
// (with per-service resolved loads) for multi-VIP cells; a nil agg (a
// wall-clock measurement such as vipscale) leaves just the envelope for
// the experiment's tables.
func newSweepDoc(lambda0 float64, workers int, total time.Duration, agg *srlb.SweepStats) sweepJSON {
	doc := sweepJSON{
		SchemaVersion: sweepSchemaVersion,
		GOMAXPROCS:    runtime.GOMAXPROCS(0),
		TotalWallMS:   float64(total.Microseconds()) / 1e3,
	}
	if agg == nil {
		return doc
	}
	doc.Lambda0, doc.Workers, doc.Seeds = lambda0, workers, agg.Seeds
	for _, c := range agg.Cells {
		if c.N() == 0 {
			continue
		}
		cell := sweepCellJSON{
			Policy:      c.Policy,
			Workload:    c.Workload,
			Variant:     c.Variant,
			Load:        c.Load,
			LoadVec:     c.LoadVec,
			StopReason:  c.StopReason,
			N:           c.N(),
			Seeds:       c.Seeds,
			outcomeJSON: outcome(c.OutcomeStats),
			WallMS:      float64(c.Wall.Microseconds()) / 1e3,
		}
		for _, v := range c.VIPs {
			cell.VIPs = append(cell.VIPs, vipCellJSON{
				Name:        v.Name,
				Workload:    v.Workload,
				Load:        v.Load,
				Offered:     dist(v.Offered.Dist),
				outcomeJSON: outcome(v.OutcomeStats),
				Unfinished:  dist(v.Unfinished.Dist),
			})
		}
		doc.Cells = append(doc.Cells, cell)
	}
	return doc
}

func writeSweepDoc(w io.Writer, doc sweepJSON) error {
	buf, err := json.MarshalIndent(doc, "", "  ")
	if err != nil {
		return err
	}
	_, err = w.Write(append(buf, '\n'))
	return err
}
