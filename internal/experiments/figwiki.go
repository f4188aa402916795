package experiments

import (
	"context"
	"fmt"
	"time"

	"srlb/internal/sketch"
	"srlb/internal/testbed"
	"srlb/internal/wiki"
)

// WikiConfig drives the §VI replay behind figures 6, 7 and 8: a (synthetic)
// 24-hour Wikipedia day replayed against the 12-replica testbed under RR
// and SR4 (§VI-B replays the trace against both), recording client-side
// wiki-page load times.
type WikiConfig struct {
	Cluster ClusterConfig
	// Day parameterizes the synthetic trace (wiki.Config zero value =
	// calibrated defaults). Set Day.Compression to trade replay fidelity
	// for speed (e.g. 24 ⇒ one simulated hour).
	Day wiki.Config
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
	// Refused counts every query of the day that did not complete.
	Refused int
	// HitRates are the per-replica memcached hit fractions at the end.
	HitRates []float64
}

// Rate returns the wiki-page launch rate of bin i in queries per second.
func (r WikiRun) Rate(i int) float64 {
	return float64(r.Launched[i]) / r.WikiBins.Width().Seconds()
}

// WikiResult holds one run per policy.
type WikiResult struct {
	Day  wiki.Config
	Runs []WikiRun
}

const classWiki = 1

// wikiBinWidth is the report bin in trace time, the paper's 10 minutes.
const wikiBinWidth = 10 * time.Minute

// MaxWikiCompression is the largest day compression that leaves a
// report bin at least 1ns of replay time.
const MaxWikiCompression = float64(wikiBinWidth)

// WikiWorkload replays the synthetic Wikipedia day (§VI) — diurnal NHPP
// arrivals, Zipf page popularity, per-replica memcached models — as the
// cell's one service (WikiService), accounting per query class and per
// trace-time bin. The load point is ignored: the day fixes its own
// intensity. The outcome's Wiki is the full WikiRun.
type WikiWorkload struct {
	Day wiki.Config
}

// Label implements Workload.
func (w WikiWorkload) Label() string { return WikiService{Day: w.Day}.Label() }

// Run implements Workload: OneService(WikiService) with a hook that
// accounts each result by class and by the trace-time bin it was issued
// in. The cell's RT is the wiki class; Refused counts every query that
// did not complete.
func (w WikiWorkload) Run(ctx context.Context, cluster ClusterConfig, spec PolicySpec, _ float64) (CellOutcome, error) {
	svc := &wikiCell{WikiService: WikiService{Day: w.Day}}
	span := checkSpan(svc, 1, svc.Span(1))
	width := w.Day.Virtual(wikiBinWidth)
	if width <= 0 {
		panic(fmt.Sprintf("experiments: %s has no report bin (compression must be at most %g)", w.Label(), MaxWikiCompression))
	}
	bins := sketch.NewTimeBins(width, span)
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
		case !res.OK: // the sink counts failures (run.Refused)
		case res.Class == classWiki:
			run.WikiAll.Add(res.RT)
			run.WikiBins.Add(res.IssuedAt, res.RT)
		default:
			run.StaticAll.Add(res.RT)
		}
	}
	out, err := OneService(svc).run(ctx, cluster, spec, 1, PoissonHooks{OnResult: onResult})
	run.Refused = out.Refused + out.Unfinished
	for _, rep := range *svc.replicas {
		if rep != nil {
			run.HitRates = append(run.HitRates, rep.HitRate())
		}
	}
	return CellOutcome{RT: run.WikiAll, Refused: run.Refused, Cluster: out.Cluster, Wiki: &run}, err
}

// wikiCell is the day as a cell's one service, keeping the replicas Open
// installs so the cell can report their hit rates.
type wikiCell struct {
	WikiService
	replicas *[]*wiki.Replica
}

func (c *wikiCell) Open(spec *testbed.VIPSpec, seed uint64, load float64) ServiceStream {
	var stream ServiceStream
	stream, c.replicas = c.open(spec, seed, load)
	return stream
}

// RunWiki replays the day under RR and SR4: a Sweep of the wiki workload
// over the two policies, one parallel cell per policy.
func RunWiki(cfg WikiConfig) WikiResult {
	sweep, _ := Runner{Workers: cfg.Workers, Progress: cfg.Progress}.RunSweep(context.Background(), Sweep{
		Cluster:  cfg.Cluster.withDefaults(),
		Policies: []PolicySpec{RR(), SRc(4)},
		Workload: WikiWorkload{Day: cfg.Day},
	})

	res := WikiResult{Day: cfg.Day}
	for pi := range sweep.Policies {
		if run := sweep.Cell(pi, 0, 0).Outcome.Wiki; run != nil {
			res.Runs = append(res.Runs, *run)
		}
	}
	return res
}
