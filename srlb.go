package srlb

import (
	"context"
	"io"
	"time"

	"srlb/internal/experiments"
	"srlb/internal/feedback"
	"srlb/internal/stats"
	"srlb/internal/testbed"
	"srlb/internal/trace"
	"srlb/internal/wiki"
)

// Re-exported configuration and result types. Aliases keep the public
// surface thin while the implementation lives in internal packages.
type (
	// Policy names a complete load-balancing configuration: SR candidate
	// count plus the per-server connection acceptance policy.
	Policy = experiments.PolicySpec
	// Cluster fixes the testbed: server count, worker/core/backlog
	// parameters, seed. The zero value is the paper's 12-server platform.
	Cluster = experiments.ClusterConfig
	// PoissonRun is the outcome of one Poisson-workload run.
	PoissonRun = experiments.PoissonRun

	// The composable experiment API: a Scenario is one cell (cluster ×
	// policy × workload × load point), a Sweep is the cross product
	// policies × loads × seeds over one workload, and a Runner executes
	// either on a worker pool with deterministic results.
	Scenario    = experiments.Scenario
	Sweep       = experiments.Sweep
	Runner      = experiments.Runner
	CellResult  = experiments.CellResult
	CellOutcome = experiments.CellOutcome
	SweepResult = experiments.SweepResult
	// ClusterVariant is the Sweep's topology/event axis: each variant
	// derives a cluster (replica count, miss-fallback, event schedule)
	// from the sweep's base.
	ClusterVariant = experiments.ClusterVariant

	// The declarative topology layer: a Topology names VIPs (each with
	// its own scheme), declares named server pools that several VIPs may
	// share (PoolSpec + VIPSpec.Pool — the contention regime), attaches
	// N LB replicas over anycast/ECMP, and schedules lifecycle Events;
	// testbed.Build compiles it to wired nodes. Cluster remains the
	// one-line single-LB/single-VIP wrapper.
	Topology = testbed.Topology
	VIPSpec  = testbed.VIPSpec
	PoolSpec = testbed.PoolSpec
	Event    = testbed.Event

	// The replication-statistics layer: a Sweep with several Seeds
	// aggregates into per-cell mean ± 95% CI. Dist summarizes one
	// metric's replicates; Replicated pairs the raw per-seed values
	// with their Dist; CellStats/SweepStats are the aggregated forms of
	// CellResult/SweepResult (see SweepResult.Aggregate and
	// Runner.RunSweepStats), embedding their metrics as an OutcomeStats.
	Dist         = stats.Dist
	Interval     = stats.Interval
	CellStats    = experiments.CellStats
	SweepStats   = experiments.SweepStats
	OutcomeStats = experiments.OutcomeStats
	// LoadGrid is the vector load axis of a grid sweep (Sweep.LoadGrid):
	// the cross product of per-service ρ axes, one logical cell per grid
	// point. Adaptive configures adaptive replication for
	// Runner.RunSweepStats: a mandatory MinSeeds replicate floor per
	// cell, then one seed per round until the relative CI95 hits
	// CITarget (cells at policy-crossover boundaries get a tighter
	// target), capped at MaxSeeds.
	LoadGrid = experiments.LoadGrid
	Adaptive = experiments.Adaptive

	// Workload is the arrival-process-plus-demand-model interface every
	// scenario replays. MultiServiceWorkload is the open-loop cell
	// (OneService its single-VIP form); WikiWorkload and TraceWorkload
	// are the §VI replays.
	Workload      = experiments.Workload
	TraceWorkload = experiments.TraceWorkload
	WikiWorkload  = experiments.WikiWorkload
	// ClusterStats are a replayed cell's cluster-side counters
	// (CellOutcome.Cluster): per-server completions, SYN retransmits and
	// timeouts, flowlet re-steers and rebinds.
	ClusterStats = experiments.ClusterStats

	// The open-loop cell: a MultiServiceWorkload interleaves one arrival
	// stream per VIP (each a ServiceWorkload named by a ServiceSpec) into
	// a single deterministic run, reporting the outcome both aggregate
	// and per service (VIPOutcome per cell, VIPStats per aggregate of
	// two or more services). Services may share a server pool
	// (ServiceSpec.Pool + MultiServiceWorkload.Pools) and carry their own
	// load axes (ServiceLoad — a fixed victim ρ against a swept
	// aggressor).
	MultiServiceWorkload = experiments.MultiServiceWorkload
	ServiceSpec          = experiments.ServiceSpec
	ServiceLoad          = experiments.ServiceLoad
	ServiceWorkload      = experiments.ServiceWorkload
	ServiceStream        = experiments.ServiceStream
	PoissonService       = experiments.PoissonService
	BurstyService        = experiments.BurstyService
	WikiService          = experiments.WikiService
	VIPOutcome           = experiments.VIPOutcome
	VIPStats             = experiments.VIPStats

	// Calibration measures λ0, the §V-A drop-onset rate.
	Calibration       = experiments.CalibrationConfig
	CalibrationResult = experiments.CalibrationResult

	// Base is what every Poisson-family config below embeds — Cluster,
	// Queries, Seeds, Workers, Progress — so a literal spells them once:
	// CDFConfig{Base: Base{Cluster: c, Queries: 20000}, Rho: 0.88}.
	// Fig2Config and Calibration keep the same fields flat.
	Base = experiments.Base

	// Figure configs/results (figures 2–8 of the paper).
	Fig2Config = experiments.Fig2Config
	Fig2Result = experiments.Fig2Result
	CDFConfig  = experiments.CDFConfig
	CDFResult  = experiments.CDFResult
	Fig4Config = experiments.Fig4Config
	Fig4Result = experiments.Fig4Result
	WikiConfig = experiments.WikiConfig
	WikiResult = experiments.WikiResult
	// WikiRun is one policy's replay outcome — also the Wiki field a
	// WikiWorkload/TraceWorkload cell carries.
	WikiRun = experiments.WikiRun

	// WikiDay parameterizes the synthetic Wikipedia day (§VI).
	WikiDay = wiki.Config
	// WikiCost is the per-replica service-cost model.
	WikiCost = wiki.CostModel
	// TraceEntry is one request of a recorded access trace.
	TraceEntry = trace.Entry

	// Ablation studies (beyond the paper's own figures). Their rows, like
	// those of every study below, are ServiceRows: the configuration's
	// label (ablation config, retransmit mode, churn mode, resilience
	// "<scenario>/<mode>") is the row's Variant; HeteroResult and
	// RetransmitResult rows embed one and add the study's own columns.
	AblationConfig = experiments.AblationConfig
	AblationResult = experiments.AblationResult
	// RetransmitConfig/Result: the §IV-C abort-on-overflow study.
	RetransmitConfig = experiments.RetransmitConfig
	RetransmitResult = experiments.RetransmitResult
	// HeteroConfig/Result: the heterogeneous-cluster extension.
	HeteroConfig = experiments.HeteroConfig
	HeteroResult = experiments.HeteroResult
	// FailoverConfig/Result: the LB-replica failover transient (kill a
	// replica mid-run; Maglev fallback vs random selection).
	FailoverConfig = experiments.FailoverConfig
	FailoverResult = experiments.FailoverResult
	// ResilienceConfig/Result: the warm-handoff resilience ablation
	// — {stateless, chash, warm} recovery disciplines through replica
	// kill, rack loss, and rolling-upgrade schedules.
	ResilienceConfig = experiments.ResilienceConfig
	ResilienceResult = experiments.ResilienceResult
	// ChurnConfig/Result: the pool churn/autoscale study (drain and
	// re-add servers under load).
	ChurnConfig = experiments.ChurnConfig
	ChurnResult = experiments.ChurnResult
	// MultiServiceConfig/Result: the concurrent multi-service study (web
	// Poisson + wiki replay + batch bursty sharing the LB); ServiceRow is
	// the per-(variant, load, policy, service) row every study reports.
	MultiServiceConfig = experiments.MultiServiceConfig
	MultiServiceResult = experiments.MultiServiceResult
	ServiceRow         = experiments.ServiceRow
	// InterferenceConfig/Result: the cross-service interference study —
	// a pinned web service and a swept bursty batch service contending
	// on one shared pool, per-victim p99/completion degradation per
	// policy.
	InterferenceConfig = experiments.InterferenceConfig
	InterferenceResult = experiments.InterferenceResult
	InterferenceRow    = experiments.InterferenceRow
	// PoliciesConfig/Result: the load-feedback policy ablation —
	// {random2, chash2, wleastload, flowlet} over the interference
	// workload and its pool-churn variant, with the telemetry plane
	// enabled and flowlet re-steer counts reported per cell.
	PoliciesConfig = experiments.PoliciesConfig
	PoliciesResult = experiments.PoliciesResult
	PoliciesRow    = experiments.PoliciesRow
	// RhoGridConfig/Result: the ρ-grid study — the four-way policy
	// ablation run over a full web-ρ × batch-ρ load matrix on one
	// shared pool, with adaptive replication concentrating seeds at
	// policy-crossover cells; renders per-policy ASCII heatmaps.
	RhoGridConfig = experiments.RhoGridConfig
	RhoGridResult = experiments.RhoGridResult

	// FeedbackConfig tunes the server-load telemetry plane
	// (Cluster.Feedback / Topology.Feedback): publish interval, report
	// TTL, EWMA smoothing.
	FeedbackConfig = feedback.Config
	// FeedbackReport is one server's published load sample.
	FeedbackReport = feedback.Report

	// VIPScaleConfig/Result: per-packet dispatch cost vs advertised
	// service count (100 → 10k VIPs) per selection scheme, on generated
	// shared-pool topologies — the O(1)-dispatch flat-curve figure.
	VIPScaleConfig = experiments.VIPScaleConfig
	VIPScaleResult = experiments.VIPScaleResult
	VIPScaleRow    = experiments.VIPScaleRow
	VIPScaleScheme = experiments.VIPScaleScheme

	// Table is one row table of an experiment rendered to text: its TSV
	// block and its BENCH_*.json table are written from the same value.
	Table = experiments.Table

	// HorizonConfig/Result: the constant-memory soak — 10⁸ open-loop
	// queries measured through streaming sketches with a flat heap.
	HorizonConfig = experiments.HorizonConfig
	HorizonResult = experiments.HorizonResult
)

// Lifecycle-event constructors for Topology.Events / Cluster.Events.
var (
	// AddServer grows a VIP's pool by one freshly built server.
	AddServer = testbed.AddServer
	// DrainServer removes a server from selection, letting established
	// flows complete.
	DrainServer = testbed.DrainServer
	// FailServer is fail-stop: selection, attachment and responses all
	// cease.
	FailServer = testbed.FailServer
	// AddPoolServer/DrainPoolServer/FailPoolServer are the pool-targeted
	// forms for named shared pools: one event drives every service
	// selecting over the pool.
	AddPoolServer   = testbed.AddPoolServer
	DrainPoolServer = testbed.DrainPoolServer
	FailPoolServer  = testbed.FailPoolServer
	// FailReplica removes an LB replica from the anycast groups.
	FailReplica = testbed.FailReplica
	// RecoverReplica re-attaches a failed replica, stateless.
	RecoverReplica = testbed.RecoverReplica
	// RecoverReplicaWarm re-attaches a failed replica with a warm flow
	// table: a surviving donor's live snapshot, or (donor == replica)
	// the replica's own pre-fail snapshot aged by its downtime.
	RecoverReplicaWarm = testbed.RecoverReplicaWarm
	// FailPoolRack fails several of a pool's servers at one
	// rate-relative instant — the correlated top-of-rack loss.
	FailPoolRack = testbed.FailPoolRack
	// RollingUpgradeEvents sequences a fail/recover pair per replica —
	// the rolling-upgrade maintenance schedule, warm or stateless.
	RollingUpgradeEvents = testbed.RollingUpgradeEvents
	// ResolveEvents resolves rate-relative event times (Event.AtFraction)
	// against an arrival span. Workloads resolve their cluster's events
	// automatically per load point; call this only when handing a
	// relative schedule straight to BuildTopology.
	ResolveEvents = testbed.ResolveEvents
)

// Policy constructors.
var (
	// RR is the paper's baseline: one random server, no Service Hunting.
	RR = experiments.RR
	// SRStatic is Algorithm 1 (SRc) over two random candidates.
	SRStatic = experiments.SRc
	// SRStaticK generalizes SRc to k candidates.
	SRStaticK = experiments.SRcK
	// SRDynamic is Algorithm 2 (SRdyn) over two random candidates.
	SRDynamic = experiments.SRdyn
	// PaperPolicies returns {RR, SR4, SR8, SR16, SRdyn} — the lines of
	// figures 2, 3 and 5.
	PaperPolicies = experiments.PaperPolicies
	// Random2/CHash2 are the load-oblivious anchors of the policy
	// ablation; WeightedLeastLoadPolicy and FlowletPolicy are the
	// load-aware schemes over the feedback plane. AblationPolicies
	// returns all four.
	Random2                 = experiments.Random2
	CHash2                  = experiments.CHash2
	WeightedLeastLoadPolicy = experiments.WeightedLeastLoadPolicy
	FlowletPolicy           = experiments.FlowletPolicy
	AblationPolicies        = experiments.AblationPolicies
)

// Replicated pairs a metric's raw per-replicate values with the Dist of
// their float64 projection — the element type of CellStats
// (Replicated[time.Duration] for response times, projected to seconds).
type Replicated[T any] = stats.Replicated[T]

// Describe computes the Dist (mean, std, stderr, Student-t 95% CI) of a
// sample of observations.
func Describe(xs []float64) Dist { return stats.Describe(xs) }

// NewReplicated builds a Replicated from per-replicate values and the
// projection used for aggregation.
func NewReplicated[T any](values []T, proj func(T) float64) Replicated[T] {
	return stats.NewReplicated(values, proj)
}

// BootstrapCI returns the deterministic percentile-bootstrap interval
// for an arbitrary statistic of xs — the small-sample tool for order
// statistics (percentiles, CDF bands) where the t interval of Describe
// does not apply.
func BootstrapCI(xs []float64, stat func([]float64) float64, resamples int, conf float64, seed uint64) Interval {
	return stats.BootstrapCI(xs, stat, resamples, conf, seed)
}

// MeanDemand is the paper's Poisson-workload CPU cost mean (100 ms).
const MeanDemand = experiments.MeanDemand

// DeriveSeeds expands a base seed into n well-separated, pairwise
// distinct, nonzero seeds for a Sweep's replication axis.
func DeriveSeeds(base uint64, n int) []uint64 { return experiments.DeriveSeeds(base, n) }

// OneService is the single-VIP cell: svc replayed as the cluster's only
// service, e.g. OneService(PoissonService{Lambda0: l0}) for the §V cell.
func OneService(svc ServiceWorkload) MultiServiceWorkload { return experiments.OneService(svc) }

// ExtendSeeds appends n derived seeds to an existing list, skipping
// zero and anything already present — how adaptive replication grows a
// user-supplied seed list to Adaptive.MaxSeeds.
func ExtendSeeds(existing []uint64, base uint64, n int) []uint64 {
	return experiments.ExtendSeeds(existing, base, n)
}

// RunPoisson replays §V's workload: `queries` Poisson arrivals at
// ratePerSec with Exp(MeanDemand) demands under the given policy.
func RunPoisson(cluster Cluster, policy Policy, ratePerSec float64, queries int) PoissonRun {
	return experiments.RunPoisson(cluster, policy, ratePerSec, queries, experiments.PoissonHooks{})
}

// Calibrate measures λ0 (§V-A's bootstrap) by a speculative-parallel
// ladder search: each round probes Calibration.ProbeFan rates
// concurrently, landing within one bisection tolerance of the serial
// search in ~ProbeFan× fewer serial rounds.
func Calibrate(cfg Calibration) CalibrationResult { return experiments.Calibrate(cfg) }

// CalibrateCached is Calibrate behind a process-wide cache keyed by the
// cluster fingerprint — sweeps and figures sharing a topology calibrate
// it once.
func CalibrateCached(cfg Calibration) CalibrationResult { return experiments.CalibrateCached(cfg) }

// Legacy figure entry points. Each is a one-line wrapper over a
// Scenario/Sweep composition in internal/experiments — prefer building
// Sweeps directly for new workloads; these survive for the paper's
// artifacts and existing callers.

// RunFig2 sweeps mean response time vs normalized load (figure 2).
func RunFig2(cfg Fig2Config) Fig2Result { return experiments.RunFig2(cfg) }

// RunFig3 runs the high-load CDF at ρ=0.88 (figure 3).
func RunFig3(cfg CDFConfig) CDFResult { return experiments.RunFig3(cfg) }

// RunFig4 records instantaneous load and fairness timelines (figure 4).
func RunFig4(cfg Fig4Config) Fig4Result { return experiments.RunFig4(cfg) }

// RunFig5 runs the light-load CDF at ρ=0.61 (figure 5).
func RunFig5(cfg CDFConfig) CDFResult { return experiments.RunFig5(cfg) }

// RunWiki replays a (synthetic) Wikipedia day under RR and SR4, producing
// the data behind figures 6, 7 and 8.
func RunWiki(cfg WikiConfig) WikiResult { return experiments.RunWiki(cfg) }

// RunAllAblations executes the design-choice studies: candidate count,
// threshold, SRdyn window, selection scheme, backlog (see AblationConfig).
func RunAllAblations(cfg AblationConfig) []AblationResult {
	return experiments.RunAllAblations(cfg)
}

// RunRetransmitAblation compares abort-on-overflow (RST) against silent
// drops + client SYN retransmission under overload — the measurement-
// hygiene decision of §IV-C.
func RunRetransmitAblation(cfg RetransmitConfig) RetransmitResult {
	return experiments.RunRetransmitAblation(cfg)
}

// RunHetero runs RR/SR4/SRdyn on a cluster with mixed core counts — the
// capacity-shedding extension the local-threshold design enables.
func RunHetero(cfg HeteroConfig) HeteroResult { return experiments.RunHetero(cfg) }

// RunFailover kills an LB replica mid-run and measures the RT/refusal
// transient, comparing consistent-hash selection + miss-fallback against
// random selection — the stateless-failover story of §II-B, measured.
func RunFailover(cfg FailoverConfig) FailoverResult { return experiments.RunFailover(cfg) }

// RunResilience ablates {stateless restart, chash miss-fallback, warm
// handoff} through replica-kill, rack-loss and rolling-upgrade
// schedules, reporting completion rates with CIs per (scenario, mode).
func RunResilience(cfg ResilienceConfig) ResilienceResult { return experiments.RunResilience(cfg) }

// RunChurn drains and re-adds part of the server pool under load,
// comparing how much of the capacity squeeze each policy passes through
// to clients, steady vs churning, with CIs across seeds. The schedule is
// rate-relative: one pair of variants serves the whole load sweep.
func RunChurn(cfg ChurnConfig) ChurnResult { return experiments.RunChurn(cfg) }

// RunMultiService drives three heterogeneous services — web Poisson,
// Wikipedia-day replay, bursty batch — concurrently through the shared
// LB, sweeping load under each policy and reporting per-service
// response-time and completion rows (with CIs across seeds).
func RunMultiService(cfg MultiServiceConfig) MultiServiceResult {
	return experiments.RunMultiService(cfg)
}

// RunInterference sweeps a bursty batch service's load against a pinned
// web service on ONE shared server pool and reports each policy's
// per-victim p99/completion degradation (with CIs across seeds) — the
// cross-service contention measurement shared-backend deployments care
// about.
func RunInterference(cfg InterferenceConfig) InterferenceResult {
	return experiments.RunInterference(cfg)
}

// RunPolicies runs the load-feedback policy ablation: {random2, chash2,
// wleastload, flowlet} over the cross-service interference workload and
// its pool-churn variant, with the telemetry plane enabled and clients
// closing connections explicitly so flowlet boundaries exist. Reports
// the per-victim p99/completion grid plus flowlet re-steer counts.
func RunPolicies(cfg PoliciesConfig) PoliciesResult {
	return experiments.RunPolicies(cfg)
}

// RunRhoGrid runs the policy ablation over a full web-ρ × batch-ρ load
// matrix on one shared pool (Sweep.LoadGrid), optionally under
// adaptive replication (RhoGridConfig.Adaptive): every cell runs at
// least MinSeeds replicates, easy cells stop once their relative CI95
// hits the target, and cells at policy-crossover boundaries absorb the
// saved budget. Reports per-(grid point, policy, service) rows and
// per-policy ASCII heatmaps, byte-identical at any worker count.
func RunRhoGrid(cfg RhoGridConfig) RhoGridResult {
	return experiments.RunRhoGrid(cfg)
}

// RunVIPScale sweeps the advertised service count (default 100 → 10k
// VIPs over shared pools, via testbed.GenerateTopology) per selection
// scheme and measures the per-packet dispatch cost of the SYN and
// steered paths by driving the LB's Handle loop directly — the
// latency-vs-#services figure whose headline is the flat curve.
func RunVIPScale(cfg VIPScaleConfig) VIPScaleResult {
	return experiments.RunVIPScale(cfg)
}

// RunHorizon executes the constant-memory soak: a single very long
// open-loop cell (default 10⁸ queries at ρ = 0.85) measured entirely
// through streaming sketches, sampling the heap as it goes. ctx cancels
// mid-run; the result then holds the partial measurement.
func RunHorizon(ctx context.Context, cfg HorizonConfig) (HorizonResult, error) {
	return experiments.RunHorizon(ctx, cfg)
}

// BuildTopology compiles a declarative Topology into a wired cluster —
// the low-level entry point for hand-built multi-LB / multi-VIP
// scenarios; experiments usually go through Cluster or a Sweep's
// ClusterVariant axis instead.
func BuildTopology(top Topology) *testbed.Testbed { return testbed.Build(top) }

// SynthesizeWikiTrace writes a synthetic Wikipedia day to w in the trace
// format (cmd/srlb-trace wraps this).
func SynthesizeWikiTrace(day WikiDay, w io.Writer) (wikiQueries, staticQueries int, err error) {
	tw := trace.NewWriter(w)
	return wiki.Synthesize(day, tw)
}

// ReadTrace loads a recorded access trace.
func ReadTrace(r io.Reader) ([]TraceEntry, error) { return trace.ReadAll(r) }

// QuickComparison runs a small RR-vs-SR4 comparison at the given load and
// returns (rrMean, sr4Mean) — the two-line demo of the README. It
// calibrates the cluster once and runs both policies as one parallel
// Sweep against the same calibrated Poisson workload.
func QuickComparison(seed uint64, servers int, rho float64, queries int) (rrMean, sr4Mean time.Duration) {
	cluster := Cluster{Seed: seed, Servers: servers}
	cal := CalibrateCached(Calibration{Cluster: cluster, Queries: queries})
	res, _ := Runner{}.RunSweep(context.Background(), Sweep{
		Cluster:  cluster,
		Policies: []Policy{RR(), SRStatic(4)},
		Loads:    []float64{rho},
		Workload: OneService(PoissonService{Lambda0: cal.Lambda0, Queries: queries}),
	})
	return res.Cell(0, 0, 0).Outcome.RT.Mean(), res.Cell(1, 0, 0).Outcome.RT.Mean()
}
