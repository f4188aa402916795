// The open-loop cell: one or more independent arrival streams — one per
// VIP — replayed together against one topology by the replay engine
// (replay.go). The paper's §V cell is one Poisson service on the
// cluster's only VIP; several services sharing LB replicas are the
// regime the power-of-choices argument is really about, where an
// imbalance created by one service's bursts is invisible to a
// per-service random spray but steerable by Service Hunting.
//
// The building blocks:
//
//   - ServiceWorkload — one VIP's arrival process (Poisson, bursty MMPP,
//     Wikipedia-day replay), opened per run with its seed.
//   - ServiceSpec — the service: a name, its workload, its pool.
//   - MultiServiceWorkload — the Workload that builds the topology,
//     opens the streams, and reports the outcome both aggregate and per
//     VIP (CellOutcome.PerVIP); OneService is its single-VIP form.
//   - RunMultiService — the canonical three-service experiment behind
//     `srlb-bench -experiment multiservice`.

package experiments

import (
	"context"
	"fmt"
	"math/rand/v2"
	"strings"
	"time"

	"srlb/internal/agent"
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
	return streamSpan(s.queries(), s.Horizon, load*s.Lambda0)
}

// Open implements ServiceWorkload.
func (s PoissonService) Open(_ *testbed.VIPSpec, seed uint64, load float64) ServiceStream {
	return newDemandStream(rng.NewPoisson(rng.Split(seed, 0xa221), load*s.Lambda0, 0), seed, s.queries(), s.Horizon)
}

// BurstyService is a two-state Markov-modulated Poisson process — a
// flowlet-style on/off arrival stream in the spirit of the host-driven
// flowlet-balancing literature: bursts at PeakFactor times the long-run
// mean alternate with quiet periods, while the mean stays load × Lambda0.
// It stresses exactly what Service Hunting is for: instantaneous
// imbalance that a static random spray cannot see.
type BurstyService struct {
	Lambda0 float64
	// Queries per run (default 20000). Ignored when Horizon is set.
	Queries int
	// Horizon, when nonzero, bounds the stream by time instead of count
	// (see PoissonService.Horizon).
	Horizon time.Duration
	// PeakFactor is the ON-state rate relative to the long-run mean
	// (default 3; held to [1, 1/burstyOnFrac] — 4, where the OFF state
	// goes fully quiet).
	PeakFactor float64
}

// burstyMeanOn and burstyMeanOff are a BurstyService's mean burst and
// quiet durations (exponentially distributed); burstyOnFrac is the
// share of time spent bursting.
const (
	burstyMeanOn, burstyMeanOff = 2 * time.Second, 6 * time.Second
	burstyOnFrac                = float64(burstyMeanOn) / float64(burstyMeanOn+burstyMeanOff)
)

func (s BurstyService) withDefaults() BurstyService {
	if s.Queries == 0 {
		s.Queries = 20000
	}
	if s.PeakFactor == 0 {
		s.PeakFactor = 3
	}
	s.PeakFactor = min(max(s.PeakFactor, 1), 1/burstyOnFrac)
	return s
}

// Label implements ServiceWorkload.
func (s BurstyService) Label() string {
	s = s.withDefaults()
	if s.Horizon > 0 {
		return fmt.Sprintf("bursty(%.0fs,peak=%.1fx)", s.Horizon.Seconds(), s.PeakFactor)
	}
	return fmt.Sprintf("bursty(%dq,peak=%.1fx)", s.Queries, s.PeakFactor)
}

// Span implements ServiceWorkload.
func (s BurstyService) Span(load float64) time.Duration {
	return streamSpan(s.withDefaults().Queries, s.Horizon, load*s.Lambda0)
}

// Open implements ServiceWorkload.
func (s BurstyService) Open(_ *testbed.VIPSpec, seed uint64, load float64) ServiceStream {
	s = s.withDefaults()
	return newDemandStream(s.newMMPP(seed, load), seed, s.Queries, s.Horizon)
}

// newMMPP builds the service's arrival process at the given load from
// the given seed. s must already carry its defaults.
func (s BurstyService) newMMPP(seed uint64, load float64) *mmpp {
	mean := load * s.Lambda0
	rateOn := s.PeakFactor * mean
	rateOff := (mean - burstyOnFrac*rateOn) / (1 - burstyOnFrac)
	if rateOff < 0 {
		rateOff = 0
	}
	arrivals := &mmpp{
		r:       rng.Split(seed, 0xb124),
		rateOn:  rateOn,
		rateOff: rateOff,
	}
	// Start in the OFF state with a fresh dwell time.
	arrivals.switchAt = rng.Exp(arrivals.r, burstyMeanOff)
	return arrivals
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

// newDemandStream bounds arrivals by the count queries, or by horizon
// when that is set; demands draw from seed's own split.
func newDemandStream(arrivals arrivalStream, seed uint64, queries int, horizon time.Duration) *demandStream {
	if horizon > 0 {
		queries = -1
	}
	return &demandStream{arrivals: arrivals, demands: rng.Split(seed, 0xde3a), remaining: queries, horizon: horizon}
}

// streamSpan is the expected arrival span of a count-bounded stream at
// rate, or the horizon of a time-bounded one. A stream with no rate has
// no span, bounded by time or not.
func streamSpan(queries int, horizon time.Duration, rate float64) time.Duration {
	if horizon <= 0 {
		return time.Duration(float64(queries) / rate * float64(time.Second))
	}
	if rate <= 0 {
		return 0
	}
	return horizon
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
// replay speed-up (load 2 replays twice as fast), so the service sweeps
// intensity coherently with its Poisson neighbors.
type WikiService struct {
	// Day parameterizes the synthetic trace. Day.Seed 0 derives the
	// stream from the scenario seed (so replicates vary the day);
	// setting it pins the trace across seeds.
	Day wiki.Config
}

// Label implements ServiceWorkload.
func (s WikiService) Label() string {
	return fmt.Sprintf("wiki-day(compress=%.0fx)", s.Day.Compression)
}

// Span implements ServiceWorkload.
func (s WikiService) Span(load float64) time.Duration {
	return time.Duration(float64(s.Day.VirtualHorizon()) / load)
}

// Open implements ServiceWorkload.
func (s WikiService) Open(spec *testbed.VIPSpec, seed uint64, load float64) ServiceStream {
	stream, _ := s.open(spec, seed, load)
	return stream
}

// open is Open that also returns the replicas it installs on spec: one
// per server, computing demand from the URL and its cache state. Caches
// start prewarmed with the popular head (the paper's replicas are
// long-running MediaWiki installations, not cold starts) and are scaled
// to the day's page catalog so hit rates survive compression. The
// returned slice fills in as Build (and later server-add events) create
// the servers.
func (s WikiService) open(spec *testbed.VIPSpec, seed uint64, load float64) (ServiceStream, *[]*wiki.Replica) {
	day := s.Day
	if day.Seed == 0 {
		day.Seed = seed
	}
	model := wiki.CostModel{}.ScaledTo(day.CatalogPages())
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
	return &wikiServiceStream{stream: wiki.NewStream(day), speed: load}, replicas
}

// wikiServiceStream adapts the synthetic day's entry stream, rescaling
// arrival times by the replay speed.
type wikiServiceStream struct {
	stream *wiki.Stream
	speed  float64
}

func (s *wikiServiceStream) Next() (time.Duration, testbed.Query, bool) {
	at, url, isWiki, done := s.stream.Next()
	if done {
		return 0, testbed.Query{}, false
	}
	return time.Duration(float64(at) / s.speed), wikiQuery(url, isWiki), true
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
// arrival process, and the pool it selects over.
type ServiceSpec struct {
	// Name labels the VIP in artifacts and per-VIP rows (default
	// "svc<i>").
	Name string
	// Workload is the service's arrival process (required).
	Workload ServiceWorkload
	// Pool indexes MultiServiceWorkload.Pools: services naming the same
	// pool select over the *same* servers and contend for the same
	// workers.
	Pool int
}

func (s ServiceSpec) name(i int) string {
	if s.Name == "" {
		return fmt.Sprintf("svc%d", i)
	}
	return s.Name
}

// MultiServiceWorkload replays the arrival streams of one or more
// services — each targeting its own VIP, over a pool of its own or one
// it shares — together against a single cluster sharing the LB
// replicas: the replay engine pumps every stream one arrival ahead and
// the DES merges them in time order. It is the one workload of every
// open-loop cell; the paper's §V cell is the one-service form
// (OneService). The policy under test applies to every VIP (the policy
// axis is what the experiment compares); the load point scales every
// service's intensity together unless ServiceLoads gives a service its
// own axis.
//
// The outcome is reported both aggregate (the usual CellOutcome fields,
// covering all VIPs) and per service (CellOutcome.PerVIP, one VIPOutcome
// per ServiceSpec in order, each carrying its resolved Load), and the
// per-VIP breakdown of a cell with two or more services survives
// replication: CellStats.VIPs aggregates each service across seeds.
type MultiServiceWorkload struct {
	Services []ServiceSpec
	// ServiceLoads, when non-nil, is the per-service load axis (parallel
	// to Services): a nonzero ServiceLoads[i] pins service i at that load
	// whatever the sweep's load point (the steady victim of an
	// interference study), and 0 tracks the sweep's load. Together with
	// Sweep.Loads this spans a ρ-matrix: batch surge ρ_b (swept) against
	// steady web ρ_w (pinned).
	ServiceLoads []float64
	// Pools is the cell's pool list, which ServiceSpec.Pool indexes
	// (default: one cluster-sized pool). Zero sizing fields inherit the
	// cluster's, ServerOverride is always the cluster's, and a nil Policy
	// takes the PolicySpec under test (one agent per physical server,
	// shared by every service on the pool).
	Pools []testbed.PoolSpec
	// CloseAck makes clients acknowledge responses with a final ACK+FIN
	// (testbed.Generator.CloseAck) — the extra steered packet arrives a
	// service time after the request, giving flowlet-grained policies a
	// boundary to act on. Off by default: the extra frame shifts the
	// shared network rng stream of pinned experiments.
	CloseAck bool
	// RetransmitRTO, when nonzero, enables client SYN retransmission
	// (testbed.Generator.RetransmitRTO) — pair with
	// Cluster.Server.AbortOnOverflow=false for the §IV-C study.
	RetransmitRTO time.Duration
}

// OneService is the single-VIP cell: svc replayed as the cluster's only
// service, e.g. OneService(PoissonService{Lambda0: l0}) for the §V cell.
func OneService(svc ServiceWorkload) MultiServiceWorkload {
	return MultiServiceWorkload{Services: []ServiceSpec{{Workload: svc}}}
}

// runVector runs a grid sweep's per-service ρ-vector (Scenario.LoadVec)
// through the ServiceLoads plumbing: service d is pinned at loads[d] and
// the scalar load knob is inert. Any ServiceLoads already set on the
// workload are replaced for the cell.
func (w MultiServiceWorkload) runVector(ctx context.Context, cluster ClusterConfig, spec PolicySpec, loads []float64) (CellOutcome, error) {
	if len(loads) != len(w.Services) {
		panic(fmt.Sprintf("experiments: %d-dimensional load vector for %d services", len(loads), len(w.Services)))
	}
	for i, l := range loads {
		if l <= 0 {
			panic(fmt.Sprintf("experiments: grid load %g for service %d must be > 0", l, i))
		}
	}
	w.ServiceLoads = loads
	return w.Run(ctx, cluster, spec, 1)
}

// ResolveLoads returns the per-service loads at the sweep's load point,
// in service order.
func (w MultiServiceWorkload) ResolveLoads(load float64) []float64 {
	out := make([]float64, len(w.Services))
	for i := range out {
		out[i] = load
		if w.ServiceLoads != nil && w.ServiceLoads[i] != 0 {
			out[i] = w.ServiceLoads[i]
		}
	}
	return out
}

// Label implements Workload. A one-service cell is named by its
// arrival process alone (poisson(20000q), bursty(…)).
func (w MultiServiceWorkload) Label() string {
	if len(w.Services) == 1 {
		return w.Services[0].Workload.Label()
	}
	parts := make([]string, len(w.Services))
	for i, svc := range w.Services {
		parts[i] = svc.name(i) + ":" + svc.Workload.Label()
		if svc.Pool < len(w.Pools) && w.Pools[svc.Pool].Name != "" {
			parts[i] += "→" + w.Pools[svc.Pool].Name
		}
		if w.ServiceLoads != nil && i < len(w.ServiceLoads) && w.ServiceLoads[i] != 0 {
			parts[i] += fmt.Sprintf("@rho=%.2f", w.ServiceLoads[i])
		}
	}
	return "multi(" + strings.Join(parts, " ") + ")"
}

// Run implements Workload.
func (w MultiServiceWorkload) Run(ctx context.Context, cluster ClusterConfig, spec PolicySpec, load float64) (CellOutcome, error) {
	return w.run(ctx, cluster, spec, load, PoissonHooks{})
}

// run is Run with observers on the testbed and on every result, the
// form the instrumented cells (RunPoisson, figure 4, failover) call.
func (w MultiServiceWorkload) run(ctx context.Context, cluster ClusterConfig, spec PolicySpec, load float64, hooks PoissonHooks) (CellOutcome, error) {
	if len(w.Services) == 0 {
		panic("experiments: MultiServiceWorkload needs at least one service")
	}
	if w.ServiceLoads != nil && len(w.ServiceLoads) != len(w.Services) {
		panic(fmt.Sprintf("experiments: %d ServiceLoads for %d services", len(w.ServiceLoads), len(w.Services)))
	}
	cluster = cluster.withDefaults()
	loads := w.ResolveLoads(load)

	// Zero sizing fields and ServerOverride come from the cluster, a nil
	// Policy takes the policy under test — one agent per physical
	// server, whichever service's query lands on it.
	pools := make([]testbed.PoolSpec, max(len(w.Pools), 1))
	copy(pools, w.Pools)
	for i, ps := range pools {
		if ps.Servers == 0 {
			ps.Servers = cluster.Servers
		}
		if ps.Server.Workers == 0 {
			ps.Server = cluster.Server
		}
		ps.ServerOverride = cluster.ServerOverride
		if ps.Policy == nil {
			ps.Policy = func(int) agent.Policy { return spec.NewAgent() }
		}
		pools[i] = ps
	}

	// One VIPSpec per service, all sharing the policy under test; each
	// service's workload may install its demand model before Build.
	specs := make([]testbed.VIPSpec, len(w.Services))
	streams := make([]ServiceStream, len(w.Services))
	// A one-service cell opens its stream with the cluster seed itself,
	// as the single-VIP cell always has: the §V goldens and the
	// benchmark's pinned sim.digest are draws of that stream. Two or
	// more services take well-separated per-service seeds.
	svcSeeds := []uint64{cluster.Seed}
	if len(w.Services) > 1 {
		svcSeeds = DeriveSeeds(cluster.Seed^0x5eb51ce5, len(w.Services))
	}
	var span time.Duration
	for i, svc := range w.Services {
		if svc.Workload == nil {
			panic(fmt.Sprintf("experiments: service %d has no workload", i))
		}
		vs := cluster.vipSpec(spec)
		vs.Name = svc.name(i)
		vs.Pool = svc.Pool
		specs[i] = vs
		if sp := checkSpan(svc.Workload, loads[i], svc.Workload.Span(loads[i])); sp > span {
			span = sp
		}
		streams[i] = svc.Workload.Open(&specs[i], svcSeeds[i], loads[i])
	}
	tb, sink, err := replay(ctx, testbed.Topology{
		Seed:     cluster.Seed,
		Replicas: cluster.Replicas,
		Pools:    pools,
		VIPs:     specs,
		Events:   cluster.Events,
		Feedback: cluster.Feedback,
	}, streams, span, w.RetransmitRTO, w.CloseAck, hooks)

	total := sink.Total()
	out := CellOutcome{
		RT:         total.RT,
		Refused:    int(total.Counters.Refused),
		Unfinished: int(total.Counters.Unfinished),
		PerVIP:     make([]VIPOutcome, len(w.Services)),
		Cluster:    clusterStats(tb),
	}
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
	if len(w.Services) == 1 {
		// The VIP's sketch holds exactly the aggregate's samples: keep
		// one sketch per cell alive, as the single-VIP cell always has.
		out.PerVIP[0].RT = out.RT
	}
	return out, err
}

// MultiServiceConfig is the canonical multi-service experiment: three
// heterogeneous services — an interactive web VIP under Poisson arrivals,
// a Wikipedia-day replay VIP, and a smaller batch VIP under bursty MMPP
// arrivals — sharing the LB replica(s), swept over load under each
// policy. The measurement is per-service: how much of each service's
// latency and completion budget does each policy preserve when the
// services contend through one balancer. The loads are 0.6 and 0.85,
// under RR, SR4 and SRdyn.
type MultiServiceConfig struct {
	// Base: Queries is the web VIP's arrivals per cell; the batch VIP
	// offers half that. Lambda0 is the web VIP's capacity rate; the
	// batch VIP's rate scales with its pool share.
	Base
	// Compression is the wiki day's replay compression (default 288 —
	// the 24-hour day in 5 simulated minutes).
	Compression float64
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
	cfg.Base = cfg.Base.resolved()
	if cfg.Compression == 0 {
		cfg.Compression = 288
	}
	rhos := []float64{0.6, 0.85}

	workload := multiServiceWorkload(cfg)
	agg, _ := cfg.runner().RunSweepStats(context.Background(), Sweep{
		Cluster:  cfg.Cluster,
		Policies: studyPolicies(),
		Loads:    rhos,
		Seeds:    cfg.Seeds,
		Workload: workload,
	})

	return MultiServiceResult{
		Lambda0:  cfg.Lambda0,
		Services: workload.serviceNames(),
		Rhos:     rhos,
		Seeds:    agg.Seeds,
		Stats:    agg,
		Rows:     serviceRows(agg),
	}
}

// multiServiceWorkload is RunMultiService's cell: web, wiki and batch
// services, each on its own pool. cfg carries its defaults.
func multiServiceWorkload(cfg MultiServiceConfig) MultiServiceWorkload {
	// The batch pool is half the web pool; its offered rate scales with
	// its pool share so every service sweeps the same normalized load.
	batchServers := cfg.Cluster.Servers / 2
	if batchServers < 2 {
		batchServers = 2
	}
	batchShare := float64(batchServers) / float64(cfg.Cluster.Servers)
	return MultiServiceWorkload{
		Services: []ServiceSpec{
			{Name: "web", Workload: cfg.poisson()},
			{Name: "wiki", Workload: WikiService{Day: wiki.Config{Compression: cfg.Compression}}, Pool: 1},
			{Name: "batch", Workload: BurstyService{
				Lambda0: cfg.Lambda0 * batchShare, Queries: cfg.Queries / 2, PeakFactor: batchPeak,
			}, Pool: 2},
		},
		Pools: []testbed.PoolSpec{{}, {}, {Servers: batchServers}},
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

// TSV is the grid as one table: one row per (rho, policy, service), the
// aggregate first.
func (r MultiServiceResult) TSV() TSV {
	return oneTable(
		fmt.Sprintf("Multi-service run: %s sharing the LB; lambda0=%.1f q/s (web VIP)", strings.Join(r.Services, "+"), r.Lambda0),
		[]column[ServiceRow]{
			colRho("rho"), colPolicy, colService, colOffered, colMean, colMeanCI, colP50, colP99,
			colOKFrac, colOKCI, colRefused, colUnfin, colN,
		}, r.Rows)
}
