// Multi-service workloads: several independent arrival streams — one per
// VIP — replayed together against one multi-VIP topology by the replay
// engine (replay.go). This is the regime the paper's power-of-choices
// argument is really about: heterogeneous services sharing LB replicas,
// where an imbalance created by one service's bursts is invisible to a
// per-service random spray but steerable by Service Hunting.
//
// The building blocks:
//
//   - ServiceWorkload — one VIP's arrival process (Poisson, bursty MMPP,
//     Wikipedia-day replay), opened per run with a per-VIP seed.
//   - ServiceSpec — the service: a name, its workload, its pool sizing.
//   - MultiServiceWorkload — the Workload that builds the joint topology,
//     opens the streams, and reports the outcome both aggregate and per
//     VIP (CellOutcome.PerVIP).
//   - RunMultiService — the canonical three-service experiment behind
//     `srlb-bench -experiment multiservice`.

package experiments

import (
	"context"
	"fmt"
	"io"
	"math/rand/v2"
	"strings"
	"time"

	"srlb/internal/agent"
	"srlb/internal/appserver"
	"srlb/internal/plot"
	"srlb/internal/rng"
	"srlb/internal/testbed"
	"srlb/internal/vrouter"
	"srlb/internal/wiki"
)

// ServiceStream yields one VIP's queries in arrival order. Next returns
// the next query and its absolute arrival time; ok=false ends the stream.
type ServiceStream interface {
	Next() (at time.Duration, q testbed.Query, ok bool)
}

// ServiceWorkload is one VIP's arrival process inside a
// MultiServiceWorkload — the per-service analogue of Workload. All
// randomness must derive from the seed passed to Open, so a multi-service
// cell stays a pure function of its scenario value.
type ServiceWorkload interface {
	// Label names the arrival process in artifacts.
	Label() string
	// Span estimates the stream's arrival span at the given load — the
	// horizon guard and the base rate-relative events resolve against.
	Span(load float64) time.Duration
	// Open builds the run's stream. spec is the service's VIPSpec,
	// mutable until Build — workloads with per-server demand models (the
	// Wikipedia replay) install them here. seed is already split per VIP.
	Open(spec *testbed.VIPSpec, seed uint64, load float64) ServiceStream
}

// PoissonService is the §V open-loop Poisson arrival process as one
// service of a multi-service workload: Exp(MeanDemand) demands at rate
// load × Lambda0, for Queries arrivals (or until Horizon).
type PoissonService struct {
	// Lambda0 converts the load point to an absolute rate in queries/sec.
	Lambda0 float64
	// Queries per run (default 20000). Ignored when Horizon is set.
	Queries int
	// Horizon, when nonzero, bounds the stream by time instead of count:
	// arrivals flow at rate load × Lambda0 until Horizon, so the offered
	// count scales with the load point while the span stays fixed — the
	// shape an interference aggressor needs when swept against a
	// fixed-span victim.
	Horizon time.Duration
}

func (s PoissonService) queries() int {
	if s.Queries == 0 {
		return 20000
	}
	return s.Queries
}

// Label implements ServiceWorkload.
func (s PoissonService) Label() string {
	if s.Horizon > 0 {
		return fmt.Sprintf("poisson(%.0fs)", s.Horizon.Seconds())
	}
	return fmt.Sprintf("poisson(%dq)", s.queries())
}

// Span implements ServiceWorkload.
func (s PoissonService) Span(load float64) time.Duration {
	if s.Horizon > 0 {
		// A stream with no rate has no span, bounded by time or not.
		if load*s.Lambda0 <= 0 {
			return 0
		}
		return s.Horizon
	}
	return time.Duration(float64(s.queries()) / (load * s.Lambda0) * float64(time.Second))
}

// Open implements ServiceWorkload.
func (s PoissonService) Open(_ *testbed.VIPSpec, seed uint64, load float64) ServiceStream {
	remaining := s.queries()
	if s.Horizon > 0 {
		remaining = -1
	}
	return &demandStream{
		arrivals:  rng.NewPoisson(rng.Split(seed, 0xa221), load*s.Lambda0, 0),
		demands:   rng.Split(seed, 0xde3a),
		remaining: remaining,
		horizon:   s.Horizon,
	}
}

// BurstyService is the on/off MMPP arrival process (BurstyWorkload) as
// one service: bursts at PeakFactor times the long-run mean alternate
// with quiet periods while the mean stays load × Lambda0.
type BurstyService struct {
	Lambda0 float64
	// Queries per run (default 20000). Ignored when Horizon is set.
	Queries int
	// Horizon, when nonzero, bounds the stream by time instead of count
	// (see PoissonService.Horizon).
	Horizon time.Duration
	// MeanOn/MeanOff are the mean burst and quiet durations (defaults 2s
	// and 6s); PeakFactor the ON-state rate relative to the mean
	// (default 3). Same semantics as BurstyWorkload.
	MeanOn, MeanOff time.Duration
	PeakFactor      float64
}

func (s BurstyService) bursty() BurstyWorkload {
	return BurstyWorkload{
		Lambda0: s.Lambda0, Queries: s.Queries,
		MeanOn: s.MeanOn, MeanOff: s.MeanOff, PeakFactor: s.PeakFactor,
	}.withDefaults()
}

// Label implements ServiceWorkload.
func (s BurstyService) Label() string {
	if s.Horizon > 0 {
		w := s.bursty()
		return fmt.Sprintf("bursty(%.0fs,peak=%.1fx)", s.Horizon.Seconds(), w.PeakFactor)
	}
	return s.bursty().Label()
}

// Span implements ServiceWorkload.
func (s BurstyService) Span(load float64) time.Duration {
	if s.Horizon > 0 {
		// A stream with no rate has no span, bounded by time or not.
		if load*s.Lambda0 <= 0 {
			return 0
		}
		return s.Horizon
	}
	w := s.bursty()
	return time.Duration(float64(w.Queries) / (load * w.Lambda0) * float64(time.Second))
}

// Open implements ServiceWorkload.
func (s BurstyService) Open(_ *testbed.VIPSpec, seed uint64, load float64) ServiceStream {
	w := s.bursty()
	remaining := w.Queries
	if s.Horizon > 0 {
		remaining = -1
	}
	return &demandStream{
		arrivals:  w.newMMPP(seed, load),
		demands:   rng.Split(seed, 0xde3a),
		remaining: remaining,
		horizon:   s.Horizon,
	}
}

// demandStream adapts an arrivalStream plus Exp(MeanDemand) demands into
// a bounded ServiceStream — the engine behind PoissonService and
// BurstyService. The bound is either a count (remaining > 0) or a time
// horizon (remaining < 0, horizon set).
type demandStream struct {
	arrivals  arrivalStream
	demands   *rand.Rand
	remaining int
	horizon   time.Duration
}

func (s *demandStream) Next() (time.Duration, testbed.Query, bool) {
	if s.remaining == 0 {
		return 0, testbed.Query{}, false
	}
	at := s.arrivals.Next()
	if s.horizon > 0 && at > s.horizon {
		s.remaining = 0
		return 0, testbed.Query{}, false
	}
	if s.remaining > 0 {
		s.remaining--
	}
	return at, testbed.Query{Demand: rng.Exp(s.demands, MeanDemand)}, true
}

// WikiService replays the §VI synthetic Wikipedia day as one service:
// diurnal NHPP arrivals, Zipf page popularity, and a per-server memcached
// demand model installed on the service's pool. The load point is a
// replay speed-up (load 2 replays twice as fast), exactly as in
// TraceWorkload, so the service sweeps intensity coherently with its
// Poisson neighbors.
type WikiService struct {
	// Day parameterizes the synthetic trace. Day.Seed 0 derives the
	// stream from the scenario seed (so replicates vary the day);
	// setting it pins the trace across seeds.
	Day wiki.Config
	// Cost is the per-server service-cost model (zero = defaults).
	Cost wiki.CostModel
	// Pinned is the recorded-day replay mode: one fixed day — its
	// arrival stream, page sequence, AND the per-server cache cost
	// streams — replayed identically across policies × seeds, all
	// derived from Day.Seed (default 1 when zero) instead of the
	// scenario seed. Replicates then differ only in the cluster's own
	// randomness (candidate selection, cross-service interleaving), so
	// across-seed variance of the wiki rows collapses to the part the
	// policy comparison actually cares about.
	Pinned bool
}

// Label implements ServiceWorkload.
func (s WikiService) Label() string {
	if s.Pinned {
		return fmt.Sprintf("wiki-day(pinned,compress=%.0fx)", s.Day.Compression)
	}
	return fmt.Sprintf("wiki-day(compress=%.0fx)", s.Day.Compression)
}

// Span implements ServiceWorkload.
func (s WikiService) Span(load float64) time.Duration {
	return time.Duration(float64(s.Day.VirtualHorizon()) / load)
}

// Open implements ServiceWorkload.
func (s WikiService) Open(spec *testbed.VIPSpec, seed uint64, load float64) ServiceStream {
	day := s.Day
	if day.Seed == 0 {
		day.Seed = seed
		if s.Pinned {
			day.Seed = 1
		}
	}
	// Pinned mode freezes the replica cost streams with the day.
	repSeed := seed
	if s.Pinned {
		repSeed = day.Seed
	}
	installWikiReplicas(spec, day, s.Cost, repSeed)
	return &wikiServiceStream{stream: wiki.NewStream(day), speed: load}
}

// installWikiReplicas installs the §VI demand model on spec: one replica
// per server computing demand from the URL and its cache state. Caches
// start prewarmed with the popular head (the paper's replicas are
// long-running MediaWiki installations, not cold starts) and are scaled
// to the day's page catalog so hit rates survive compression. The
// returned slice fills in as Build (and later server-add events) create
// the servers.
func installWikiReplicas(spec *testbed.VIPSpec, day wiki.Config, cost wiki.CostModel, seed uint64) *[]*wiki.Replica {
	model := cost.ScaledTo(day.CatalogPages())
	model.Prewarm = true
	replicas := new([]*wiki.Replica)
	spec.Demand = func(i int) vrouter.DemandFn {
		rep := wiki.NewReplica(seed+uint64(i)*7919, model)
		for len(*replicas) <= i {
			*replicas = append(*replicas, nil)
		}
		(*replicas)[i] = rep
		return rep.Demand
	}
	return replicas
}

// wikiServiceStream adapts the synthetic day's entry stream, rescaling
// arrival times by the replay speed.
type wikiServiceStream struct {
	stream *wiki.Stream
	speed  float64
}

func (s *wikiServiceStream) Next() (time.Duration, testbed.Query, bool) {
	e, isWiki, done := s.stream.Next()
	if done {
		return 0, testbed.Query{}, false
	}
	return time.Duration(float64(e.At) / s.speed), wikiQuery(e.URL, isWiki), true
}

// wikiQuery is one request of the §VI workload: the URL travels in the
// payload, wiki pages are classed apart from static objects.
func wikiQuery(url string, isWiki bool) testbed.Query {
	q := testbed.Query{URL: url}
	if isWiki {
		q.Class = classWiki
	}
	return q
}

// ServiceSpec declares one service of a MultiServiceWorkload: its name,
// arrival process, and pool sizing. Zero pool fields inherit the
// cluster's (ClusterConfig.Servers / .Server).
type ServiceSpec struct {
	// Name labels the VIP in artifacts and per-VIP rows (default
	// "svc<i>").
	Name string
	// Workload is the service's arrival process (required).
	Workload ServiceWorkload
	// Pool, when set, references a MultiServiceWorkload.Pools entry by
	// name: services naming the same pool select over the *same*
	// servers and contend for the same workers. Servers/Server are then
	// ignored — the pool carries the sizing.
	Pool string
	// Servers overrides the service's pool size; Server its per-server
	// configuration.
	Servers int
	Server  appserver.Config
}

func (s ServiceSpec) name(i int) string {
	if s.Name == "" {
		return fmt.Sprintf("svc%d", i)
	}
	return s.Name
}

// ServiceLoad maps the sweep's scalar load point onto one service's own
// intensity — the per-service load axis. The zero value tracks the sweep
// load unchanged; Fixed pins a constant (the steady victim of an
// interference study); Scale multiplies the sweep's knob (a proportional
// aggressor). Together with Sweep.Loads this spans a ρ-matrix: e.g.
// batch surge ρ_b (Scale 1, swept) against steady web ρ_w (Fixed).
type ServiceLoad struct {
	// Fixed, when nonzero, pins the service's load at this value
	// whatever the sweep's load point.
	Fixed float64
	// Scale multiplies the sweep's load point (0 means 1). Ignored when
	// Fixed is set.
	Scale float64
}

// Resolve returns the service's effective load at the sweep's load point.
func (sl ServiceLoad) Resolve(load float64) float64 {
	if sl.Fixed != 0 {
		return sl.Fixed
	}
	if sl.Scale != 0 {
		return sl.Scale * load
	}
	return load
}

// MultiServiceWorkload replays the arrival streams of several services —
// each targeting its own VIP, with its own server pool or a shared one —
// together against a single multi-VIP cluster sharing the LB replicas:
// the replay engine pumps every stream one arrival ahead and the DES
// merges them in time order. The policy under test
// applies to every VIP (the policy axis is what the experiment
// compares); the load point scales every service's intensity together
// unless ServiceLoads gives a service its own axis.
//
// The outcome is reported both aggregate (the usual CellOutcome fields,
// covering all VIPs) and per service (CellOutcome.PerVIP, one VIPOutcome
// per ServiceSpec in order, each carrying its resolved Load), and the
// per-VIP breakdown survives replication: CellStats.VIPs aggregates each
// service across seeds.
type MultiServiceWorkload struct {
	Services []ServiceSpec
	// ServiceLoads, when non-nil, gives service i its own load axis
	// (must be parallel to Services): the cell's scalar load resolves
	// through ServiceLoads[i] before reaching the service's workload.
	ServiceLoads []ServiceLoad
	// Pools declares named server pools that services reference via
	// ServiceSpec.Pool — the shared-backend regime. Zero sizing fields
	// inherit the cluster's; a nil Policy takes the PolicySpec under
	// test (one agent per physical server, shared by every service).
	Pools []testbed.PoolSpec
	// CloseAck makes clients acknowledge responses with a final ACK+FIN
	// (testbed.Generator.CloseAck) — the extra steered packet arrives a
	// service time after the request, giving flowlet-grained policies a
	// boundary to act on. Off by default: the extra frame shifts the
	// shared network rng stream of pinned experiments.
	CloseAck bool
}

// MultiServiceStats is MultiServiceWorkload's CellOutcome.Extra payload:
// the cluster-side counters a policy ablation wants alongside the
// latency aggregates. (CellStats drops Extra — read these off the raw
// SweepResult cells.)
type MultiServiceStats struct {
	// Resteers counts flowlet re-steers (mid-connection candidate
	// rewrites) summed across LB replicas.
	Resteers uint64
	// Rebinds is the flow-table view of the same events, summed across
	// replicas — equal to Resteers unless a rebind raced an expiry.
	Rebinds uint64
}

// RunVector implements VectorWorkload: a grid sweep's per-service
// ρ-vector rides the ServiceLoads plumbing — service d is pinned at
// loads[d] (ServiceLoad.Fixed) and the scalar load knob is inert. Any
// ServiceLoads already set on the workload are replaced for the cell.
func (w MultiServiceWorkload) RunVector(ctx context.Context, cluster ClusterConfig, spec PolicySpec, loads []float64) (CellOutcome, error) {
	if len(loads) != len(w.Services) {
		panic(fmt.Sprintf("experiments: %d-dimensional load vector for %d services", len(loads), len(w.Services)))
	}
	sl := make([]ServiceLoad, len(loads))
	for i, l := range loads {
		if l <= 0 {
			panic(fmt.Sprintf("experiments: grid load %g for service %d must be > 0", l, i))
		}
		sl[i] = ServiceLoad{Fixed: l}
	}
	w.ServiceLoads = sl
	return w.Run(ctx, cluster, spec, 1)
}

// ResolveLoads returns the per-service loads at the sweep's load point,
// in service order.
func (w MultiServiceWorkload) ResolveLoads(load float64) []float64 {
	out := make([]float64, len(w.Services))
	for i := range out {
		out[i] = load
		if w.ServiceLoads != nil {
			out[i] = w.ServiceLoads[i].Resolve(load)
		}
	}
	return out
}

// Label implements Workload.
func (w MultiServiceWorkload) Label() string {
	parts := make([]string, len(w.Services))
	for i, svc := range w.Services {
		parts[i] = svc.name(i) + ":" + svc.Workload.Label()
		if svc.Pool != "" {
			parts[i] += "→" + svc.Pool
		}
		if w.ServiceLoads != nil && i < len(w.ServiceLoads) && w.ServiceLoads[i].Fixed != 0 {
			parts[i] += fmt.Sprintf("@rho=%.2f", w.ServiceLoads[i].Fixed)
		}
	}
	return "multi(" + strings.Join(parts, " ") + ")"
}

// Run implements Workload.
func (w MultiServiceWorkload) Run(ctx context.Context, cluster ClusterConfig, spec PolicySpec, load float64) (CellOutcome, error) {
	if len(w.Services) == 0 {
		panic("experiments: MultiServiceWorkload needs at least one service")
	}
	if w.ServiceLoads != nil && len(w.ServiceLoads) != len(w.Services) {
		panic(fmt.Sprintf("experiments: %d ServiceLoads for %d services", len(w.ServiceLoads), len(w.Services)))
	}
	cluster = cluster.withDefaults()
	loads := w.ResolveLoads(load)

	// Shared pools: zero sizing inherits the cluster's, a nil Policy
	// takes the policy under test — one agent per physical server,
	// whichever service's query lands on it.
	pools := make([]testbed.PoolSpec, len(w.Pools))
	for i, ps := range w.Pools {
		if ps.Servers == 0 {
			ps.Servers = cluster.Servers
		}
		if ps.Server.Workers == 0 {
			ps.Server = cluster.Server
		}
		if ps.ServerOverride == nil {
			ps.ServerOverride = cluster.ServerOverride
		}
		if ps.Policy == nil {
			ps.Policy = func(int) agent.Policy { return spec.NewAgent() }
		}
		pools[i] = ps
	}

	// One VIPSpec per service, all sharing the policy under test; each
	// service's workload may install its demand model before Build.
	specs := make([]testbed.VIPSpec, len(w.Services))
	streams := make([]ServiceStream, len(w.Services))
	svcSeeds := DeriveSeeds(cluster.Seed^0x5eb51ce5, len(w.Services))
	var span time.Duration
	for i, svc := range w.Services {
		if svc.Workload == nil {
			panic(fmt.Sprintf("experiments: service %d has no workload", i))
		}
		vs := cluster.vipSpec(spec)
		vs.Name = svc.name(i)
		if svc.Pool != "" {
			// The referenced pool carries sizing and policy; the VIPSpec
			// keeps only the per-service machinery (scheme, fallback,
			// demand).
			vs.Pool = svc.Pool
			vs.Servers = 0
			vs.Server = appserver.Config{}
			vs.ServerOverride = nil
			vs.Policy = nil
		} else {
			if svc.Servers > 0 {
				vs.Servers = svc.Servers
				vs.ServerOverride = nil
			}
			if svc.Server.Workers != 0 {
				vs.Server = svc.Server
			}
		}
		specs[i] = vs
		if sp := checkSpan(svc.Workload, loads[i], svc.Workload.Span(loads[i])); sp > span {
			span = sp
		}
		streams[i] = svc.Workload.Open(&specs[i], svcSeeds[i], loads[i])
	}
	tb, sink, err := replay(ctx, testbed.Topology{
		Seed:     cluster.Seed,
		Replicas: cluster.Replicas,
		Clients:  cluster.Clients,
		Pools:    pools,
		VIPs:     specs,
		Events:   cluster.Events,
		Feedback: cluster.Feedback,
	}, streams, span, replaySettings{closeAck: w.CloseAck})

	out := sinkOutcome(sink)
	out.PerVIP = make([]VIPOutcome, len(w.Services))
	for i, vs := range sink.VIPs() {
		out.PerVIP[i] = VIPOutcome{
			Name:       specs[i].Name,
			Workload:   w.Services[i].Workload.Label(),
			Load:       loads[i],
			Offered:    int(vs.Counters.Offered),
			RT:         vs.RT,
			Refused:    int(vs.Counters.Refused),
			Unfinished: int(vs.Counters.Unfinished),
		}
	}
	var ms MultiServiceStats
	for _, lb := range tb.LBs {
		ms.Resteers += lb.Counts.Get("flowlet_resteer")
		ms.Rebinds += lb.FlowStats().Rebinds
	}
	out.Extra = ms
	return out, err
}

// MultiServiceConfig is the canonical multi-service experiment: three
// heterogeneous services — an interactive web VIP under Poisson arrivals,
// a Wikipedia-day replay VIP, and a smaller batch VIP under bursty MMPP
// arrivals — sharing the LB replica(s), swept over load under each
// policy. The measurement is per-service: how much of each service's
// latency and completion budget does each policy preserve when the
// services contend through one balancer.
type MultiServiceConfig struct {
	// Base: Queries is the web VIP's arrivals per cell; the batch VIP
	// offers half that.
	Base
	// Lambda0 is the web VIP's calibrated capacity rate (0 ⇒ measured
	// via CalibrateCached on the base cluster); the batch VIP's rate
	// scales with its pool share.
	Lambda0 float64
	// Rhos are the normalized loads to sweep (default {0.6, 0.85}).
	Rhos []float64
	// Compression is the wiki day's replay compression (default 288 —
	// the 24-hour day in 5 simulated minutes).
	Compression float64
	// BatchPeak is the batch VIP's ON-state burst factor (default 4).
	BatchPeak float64
	// Policies defaults to {RR, SR4, SRdyn}.
	Policies []PolicySpec
}

// MultiServiceResult holds the full grid.
type MultiServiceResult struct {
	Lambda0 float64
	// Services lists the service names, in ServiceSpec order.
	Services []string
	Rhos     []float64
	Seeds    []uint64
	// Stats is the underlying replicated sweep — per-VIP aggregates
	// included (CellStats.VIPs) — the machine-readable artifact's source.
	Stats SweepStats
	// Rows holds one row per (rho, policy, service), the "all" aggregate
	// first within each cell.
	Rows []ServiceRow
}

// RunMultiService executes the experiment.
func RunMultiService(cfg MultiServiceConfig) MultiServiceResult {
	if len(cfg.Rhos) == 0 {
		cfg.Rhos = []float64{0.6, 0.85}
	}
	serviceSweepDefaults(&cfg.Base, &cfg.Lambda0, &cfg.Rhos, &cfg.BatchPeak)
	if cfg.Compression == 0 {
		cfg.Compression = 288
	}
	if len(cfg.Policies) == 0 {
		cfg.Policies = []PolicySpec{RR(), SRc(4), SRdyn()}
	}

	// The batch pool is half the web pool; its offered rate scales with
	// its pool share so every service sweeps the same normalized load.
	batchServers := cfg.Cluster.Servers / 2
	if batchServers < 2 {
		batchServers = 2
	}
	batchShare := float64(batchServers) / float64(cfg.Cluster.Servers)
	workload := MultiServiceWorkload{Services: []ServiceSpec{
		{Name: "web", Workload: PoissonService{Lambda0: cfg.Lambda0, Queries: cfg.Queries}},
		{Name: "wiki", Workload: WikiService{Day: wiki.Config{Compression: cfg.Compression}}},
		{Name: "batch", Workload: BurstyService{
			Lambda0: cfg.Lambda0 * batchShare, Queries: cfg.Queries / 2, PeakFactor: cfg.BatchPeak,
		}, Servers: batchServers},
	}}

	agg, _ := cfg.runner().RunSweepStats(context.Background(), Sweep{
		Cluster:  cfg.Cluster,
		Policies: cfg.Policies,
		Loads:    cfg.Rhos,
		Seeds:    cfg.Seeds,
		Workload: workload,
	})

	return MultiServiceResult{
		Lambda0:  cfg.Lambda0,
		Services: workload.serviceNames(),
		Rhos:     cfg.Rhos,
		Seeds:    agg.Seeds,
		Stats:    agg,
		Rows:     serviceRows(agg),
	}
}

// Row returns the row for (policy, service) at the rho closest to the
// requested load.
func (r MultiServiceResult) Row(policy, service string, rho float64) (ServiceRow, error) {
	return findRow("multiservice", r.Rows, ServiceRow.base, "", policy, service, nearRho(rho))
}

// Improvement returns the RR-vs-policy mean-RT ratio for one service at
// the rho closest to the requested load — "how much faster is this
// service under the policy than under the random spray".
func (r MultiServiceResult) Improvement(policy, service string, rho float64) (float64, error) {
	rr, err := r.Row("RR", service, rho)
	if err != nil {
		return 0, err
	}
	row, err := r.Row(policy, service, rho)
	if err != nil {
		return 0, err
	}
	if row.Mean == 0 {
		return 0, fmt.Errorf("multiservice: zero mean for (%q, %q)", policy, service)
	}
	return float64(rr.Mean) / float64(row.Mean), nil
}

// PlotSeries renders one service's mean-RT-vs-load lines, one series per
// policy, with across-seed ci95 error bars.
func (r MultiServiceResult) PlotSeries(service string) []plot.Series {
	return policySeries(r.Rows, ServiceRow.base, "", service, ServiceRow.meanAndCI95)
}

// WriteTSV renders the grid: one row per (rho, policy, service), the
// aggregate first.
func (r MultiServiceResult) WriteTSV(w io.Writer) error {
	return writeTable(w,
		fmt.Sprintf("Multi-service run: %s sharing the LB; lambda0=%.1f q/s (web VIP)", strings.Join(r.Services, "+"), r.Lambda0),
		[]column[ServiceRow]{
			colRho("rho"), colPolicy, colService, colOffered, colMean, colMeanCI, colP50, colP99,
			colOKFrac, colOKCI, colRefused, colUnfin, colN,
		}, r.Rows)
}
