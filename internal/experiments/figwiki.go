package experiments

import (
	"context"
	"fmt"
	"time"

	"srlb/internal/sketch"
	"srlb/internal/testbed"
	"srlb/internal/trace"
	"srlb/internal/wiki"
)

// WikiConfig drives the §VI replay behind figures 6, 7 and 8: a (synthetic)
// 24-hour Wikipedia day replayed against the 12-replica testbed under RR
// and SR4, recording client-side wiki-page load times.
type WikiConfig struct {
	Cluster ClusterConfig
	// Day parameterizes the synthetic trace (wiki.Config zero value =
	// calibrated defaults). Set Day.Compression to trade replay fidelity
	// for speed (e.g. 24 ⇒ one simulated hour).
	Day wiki.Config
	// Cost is the per-replica service-cost model.
	Cost wiki.CostModel
	// Policies defaults to {RR, SR4} (§VI-B replays the trace against
	// both).
	Policies []PolicySpec
	// BinWidth is the report bin in *trace* time (default 10min, the
	// paper's).
	BinWidth time.Duration
	// Entries optionally replays a recorded trace instead of the
	// synthetic stream (e.g. loaded via the trace package). When set,
	// Day is only used for compression/labeling.
	Entries []trace.Entry
	// Workers bounds the per-policy parallelism (0 = GOMAXPROCS).
	Workers  int
	Progress func(string)
}

// WikiRun is the outcome of replaying the day under one policy.
type WikiRun struct {
	Spec PolicySpec
	// Wiki are the wiki-page load times, binned by trace time and overall.
	WikiBins *sketch.TimeBins
	WikiAll  *sketch.Histogram
	// StaticAll are static-object load times (equivalent under both
	// policies, §VI-C).
	StaticAll *sketch.Histogram
	// Launched counts the wiki-page queries issued in each bin of
	// WikiBins, whatever their outcome (figure 6 top plot).
	Launched []int
	Refused  int
	// HitRates are the per-replica memcached hit fractions at the end.
	HitRates []float64
}

// Rate returns the wiki-page launch rate of bin i in queries per second.
func (r WikiRun) Rate(i int) float64 {
	return float64(r.Launched[i]) / r.WikiBins.Width().Seconds()
}

// WikiResult holds one run per policy.
type WikiResult struct {
	Day      wiki.Config
	BinWidth time.Duration
	Runs     []WikiRun
}

const classWiki = 1

// WikiWorkload replays the synthetic Wikipedia day (§VI) — diurnal NHPP
// arrivals, Zipf page popularity, per-replica memcached models — or a
// recorded trace when Entries is set. The load point is ignored: intensity
// lives in Day (Scale/Compression). The outcome's Wiki is the full
// WikiRun.
type WikiWorkload struct {
	Day  wiki.Config
	Cost wiki.CostModel
	// BinWidth is the report bin in trace time (default 10min).
	BinWidth time.Duration
	// Entries, when non-empty, replaces the synthetic stream.
	Entries []trace.Entry
}

// Label implements Workload.
func (w WikiWorkload) Label() string {
	if len(w.Entries) > 0 {
		return fmt.Sprintf("wiki-trace(%d entries)", len(w.Entries))
	}
	return fmt.Sprintf("wiki-day(compress=%.0fx)", w.Day.Compression)
}

// Run implements Workload.
func (w WikiWorkload) Run(ctx context.Context, cluster ClusterConfig, spec PolicySpec, _ float64) (CellOutcome, error) {
	return w.replay(ctx, cluster, spec, 1)
}

// TraceWorkload replays a recorded access trace (see cmd/srlb-trace and
// the trace package). Demands are derived per server from the URL through
// the Wikipedia replica model, as in §VI. The load point is a replay
// speed-up: arrival times are divided by it (load 2 replays twice as
// fast; load 1 replays in recorded time). The outcome's Wiki is the
// WikiRun.
type TraceWorkload struct {
	Entries []trace.Entry
	// Cost is the per-replica service-cost model (zero value = defaults).
	Cost wiki.CostModel
	// BinWidth is the report bin in trace time (default 10min).
	BinWidth time.Duration
}

// Label implements Workload.
func (w TraceWorkload) Label() string {
	return fmt.Sprintf("trace(%d entries)", len(w.Entries))
}

// Run implements Workload.
func (w TraceWorkload) Run(ctx context.Context, cluster ClusterConfig, spec PolicySpec, load float64) (CellOutcome, error) {
	if load <= 0 {
		load = 1
	}
	// The zero-value day keeps the replica cache model (catalog size, cost
	// scaling) independent of the replay speed — speed only rescales
	// arrival times and report bins, so load points stay comparable.
	return WikiWorkload{Cost: w.Cost, BinWidth: w.BinWidth, Entries: w.Entries}.replay(ctx, cluster, spec, load)
}

// RunWiki replays the day under every policy: a Sweep of the wiki workload
// over the policy set, one parallel cell per policy.
func RunWiki(cfg WikiConfig) WikiResult {
	cfg.Cluster = cfg.Cluster.withDefaults()
	if len(cfg.Policies) == 0 {
		cfg.Policies = []PolicySpec{RR(), SRc(4)}
	}
	if cfg.BinWidth == 0 {
		cfg.BinWidth = 10 * time.Minute
	}

	sweep, _ := Runner{Workers: cfg.Workers, Progress: cfg.Progress}.RunSweep(context.Background(), Sweep{
		Cluster:  cfg.Cluster,
		Policies: cfg.Policies,
		Workload: WikiWorkload{Day: cfg.Day, Cost: cfg.Cost, BinWidth: cfg.BinWidth, Entries: cfg.Entries},
	})

	res := WikiResult{Day: cfg.Day, BinWidth: cfg.BinWidth}
	for pi := range cfg.Policies {
		if run := sweep.Cell(pi, 0, 0).Outcome.Wiki; run != nil {
			res.Runs = append(res.Runs, *run)
		}
	}
	return res
}

// replay is the §VI cell behind WikiWorkload and TraceWorkload: the day's
// stream (or the recorded entries, their arrival times divided by speed)
// against replicas that compute demand from the URL and their cache
// state, measured per class and per trace-time bin.
func (w WikiWorkload) replay(ctx context.Context, cluster ClusterConfig, spec PolicySpec, speed float64) (CellOutcome, error) {
	binWidth := w.BinWidth
	if binWidth == 0 {
		binWidth = 10 * time.Minute
	}
	top := cluster.topology(spec)
	replicas := installWikiReplicas(&top.VIPs[0], w.Day, w.Cost, top.Seed)
	// Bin width in virtual time: compression shrinks the synthetic clock,
	// and recorded entries are additionally rescaled by speed.
	comp := w.Day.RealTime(time.Second).Seconds() // = Compression factor
	var stream ServiceStream
	var span time.Duration
	if n := len(w.Entries); n > 0 {
		// A recorded trace defines its own span.
		stream = &entryStream{entries: w.Entries, speed: speed}
		span = time.Duration(float64(w.Entries[n-1].At) / speed)
		comp *= speed
	} else {
		stream = &wikiServiceStream{stream: wiki.NewStream(w.Day), speed: 1}
		span = w.Day.VirtualHorizon()
	}
	span = checkSpan(w, speed, span)
	virtualBin := time.Duration(float64(binWidth) / comp)

	bins := sketch.NewTimeBins(virtualBin, span)
	run := WikiRun{
		Spec:      spec,
		WikiBins:  bins,
		WikiAll:   sketch.New(),
		StaticAll: sketch.New(),
		Launched:  make([]int, bins.NumBins()),
	}
	// Every launched query reports exactly once (drained ones as !OK), so
	// the per-bin launch counts can be taken here too.
	onResult := func(res testbed.Result) {
		if res.Class == classWiki {
			run.Launched[bins.Index(res.IssuedAt)]++
		}
		switch {
		case res.Refused || !res.OK:
			run.Refused++
		case res.Class == classWiki:
			run.WikiAll.Add(res.RT)
			run.WikiBins.Add(res.IssuedAt, res.RT)
		default:
			run.StaticAll.Add(res.RT)
		}
	}
	tb, _, err := replay(ctx, top, []ServiceStream{stream}, span, 0, false, PoissonHooks{OnResult: onResult})
	for _, rep := range *replicas {
		if rep != nil {
			run.HitRates = append(run.HitRates, rep.HitRate())
		}
	}
	return CellOutcome{RT: run.WikiAll, Refused: run.Refused, Cluster: clusterStats(tb), Wiki: &run}, err
}

// entryStream replays recorded trace entries in order, their arrival
// times divided by the replay speed.
type entryStream struct {
	entries []trace.Entry
	speed   float64
}

func (s *entryStream) Next() (time.Duration, testbed.Query, bool) {
	if len(s.entries) == 0 {
		return 0, testbed.Query{}, false
	}
	e := s.entries[0]
	s.entries = s.entries[1:]
	return time.Duration(float64(e.At) / s.speed), wikiQuery(e.URL, e.IsWikiPage()), true
}
