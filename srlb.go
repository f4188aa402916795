package srlb

import (
	"context"
	"time"

	"srlb/internal/experiments"
	"srlb/internal/stats"
	"srlb/internal/testbed"
	"srlb/internal/wiki"
)

// Re-exported configuration types. Aliases keep the public surface thin
// while the implementation lives in internal packages; every name here
// has a reader in cmd/, examples/ or a doc recipe (surface_test.go), and
// results are reached through :=.
type (
	// Policy names a complete load-balancing configuration: SR candidate
	// count plus the per-server connection acceptance policy.
	Policy = experiments.PolicySpec
	// Cluster fixes the testbed: server count, worker/core/backlog
	// parameters, seed. The zero value is the paper's 12-server platform.
	Cluster = experiments.ClusterConfig

	// The composable experiment API: a Scenario is one cell (cluster ×
	// policy × workload × load point), a Sweep is the cross product
	// policies × loads × seeds over one workload, and a Runner executes
	// either on a worker pool with deterministic results.
	Scenario = experiments.Scenario
	Sweep    = experiments.Sweep
	Runner   = experiments.Runner
	// ClusterVariant is the Sweep's topology/event axis: each variant
	// derives a cluster (replica count, miss-fallback, event schedule)
	// from the sweep's base.
	ClusterVariant = experiments.ClusterVariant

	// The declarative topology layer: a Topology declares server pools
	// (PoolSpec) and VIPs, each selecting over one pool by its index
	// (VIPSpec.Pool; VIPs naming the same pool contend for its workers)
	// with its own scheme constructor (VIPSpec.Scheme, which also
	// receives the VIP's feedback view when the plane is on), attaches N
	// LB replicas over anycast/ECMP, and schedules lifecycle Events;
	// testbed.Build compiles it to wired nodes. Cluster remains the
	// one-line single-LB/single-VIP wrapper.
	Topology = testbed.Topology
	VIPSpec  = testbed.VIPSpec
	PoolSpec = testbed.PoolSpec
	Event    = testbed.Event

	// The replication-statistics layer: a Sweep with several Seeds
	// aggregates into per-cell mean ± 95% CI (Runner.RunSweepStats). Dist
	// summarizes one metric's replicates; SweepStats is the aggregated
	// sweep, its cells' metrics an OutcomeStats each.
	Dist         = stats.Dist
	SweepStats   = experiments.SweepStats
	OutcomeStats = experiments.OutcomeStats
	// Adaptive configures adaptive replication for
	// Runner.RunSweepStats: a mandatory MinSeeds replicate floor per
	// cell, then one seed per round until the relative CI95 hits
	// CITarget (cells at policy-crossover boundaries get a tighter
	// target), capped at MaxSeeds.
	Adaptive = experiments.Adaptive

	// Workload is the arrival-process-plus-demand-model interface every
	// scenario replays. MultiServiceWorkload is the open-loop cell
	// (OneService its single-VIP form); WikiWorkload is the §VI replay.
	Workload     = experiments.Workload
	WikiWorkload = experiments.WikiWorkload

	// The open-loop cell: a MultiServiceWorkload interleaves one arrival
	// stream per VIP (each a PoissonService, BurstyService or
	// WikiService named by a ServiceSpec) into a single deterministic
	// run, reporting the outcome both aggregate and per service. Each
	// service selects over one of the cell's pools (ServiceSpec.Pool
	// indexes MultiServiceWorkload.Pools, default one cluster-sized pool)
	// and may carry its own load axis (MultiServiceWorkload.ServiceLoads).
	MultiServiceWorkload = experiments.MultiServiceWorkload
	ServiceSpec          = experiments.ServiceSpec
	PoissonService       = experiments.PoissonService
	BurstyService        = experiments.BurstyService
	WikiService          = experiments.WikiService

	// Calibration measures λ0, the §V-A drop-onset rate.
	Calibration = experiments.CalibrationConfig

	// Base is what every Poisson-family config below embeds — Cluster,
	// Queries, Seeds, Workers, Progress — so a literal spells them once:
	// CDFConfig{Base: Base{Cluster: c, Queries: 20000}, Rho: 0.88}.
	// Fig2Config and Calibration keep the same fields flat.
	Base = experiments.Base

	// Figure configs (figures 2–8 of the paper).
	Fig2Config = experiments.Fig2Config
	CDFConfig  = experiments.CDFConfig
	CDFResult  = experiments.CDFResult
	Fig4Config = experiments.Fig4Config
	WikiConfig = experiments.WikiConfig
	// WikiRun is one policy's replay outcome — also the Wiki field a
	// WikiWorkload cell carries.
	WikiRun = experiments.WikiRun

	// WikiDay parameterizes the synthetic Wikipedia day (§VI).
	WikiDay = wiki.Config

	// Study configs (beyond the paper's own figures), one per Run
	// function below. Every study's rows are ServiceRows, the
	// per-(variant, load, policy, service) row: the configuration's label
	// (ablation config, retransmit mode, churn mode, resilience
	// "<scenario>/<mode>") is the row's Variant, and the hetero and
	// retransmit rows embed one and add columns of their own.
	AblationConfig     = experiments.AblationConfig
	RetransmitConfig   = experiments.RetransmitConfig
	HeteroConfig       = experiments.HeteroConfig
	FailoverConfig     = experiments.FailoverConfig
	ResilienceConfig   = experiments.ResilienceConfig
	ChurnConfig        = experiments.ChurnConfig
	MultiServiceConfig = experiments.MultiServiceConfig
	ServiceRow         = experiments.ServiceRow
	InterferenceConfig = experiments.InterferenceConfig
	PoliciesConfig     = experiments.PoliciesConfig
	RhoGridConfig      = experiments.RhoGridConfig
	VIPScaleConfig     = experiments.VIPScaleConfig

	// Table is one row table of an experiment rendered to text: its TSV
	// block and its BENCH_*.json table are written from the same value.
	Table = experiments.Table
	// TSV is one TSV artifact: an optional heading line, then tables.
	// Every result returns its files as TSV values; Render writes one.
	TSV = experiments.TSV

	// HorizonConfig is the constant-memory soak — 10⁸ open-loop queries
	// measured through streaming sketches with a flat heap.
	HorizonConfig = experiments.HorizonConfig
)

// MaxWikiCompression is the largest WikiDay.Compression a wiki replay
// takes: its 10-minute report bin must last at least 1ns of replay time.
const MaxWikiCompression = experiments.MaxWikiCompression

// Lifecycle-event constructors for Topology.Events / Cluster.Events.
var (
	// AddServer grows a pool by one freshly built server; DrainServer
	// removes one of its servers from selection, letting established
	// flows complete. One event drives every service selecting over the
	// pool.
	AddServer   = testbed.AddServer
	DrainServer = testbed.DrainServer
	// FailReplica removes an LB replica from the anycast groups.
	FailReplica = testbed.FailReplica
	// RecoverReplica re-attaches a failed replica, stateless.
	RecoverReplica = testbed.RecoverReplica
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
	// SRDynamic is Algorithm 2 (SRdyn) over two random candidates.
	SRDynamic = experiments.SRdyn
	// PaperPolicies returns {RR, SR4, SR8, SR16, SRdyn} — the lines of
	// figures 2, 3 and 5.
	PaperPolicies = experiments.PaperPolicies
)

// Describe computes the Dist (mean, std, stderr, Student-t 95% CI) of a
// sample of observations.
func Describe(xs []float64) Dist { return stats.Describe(xs) }

// DeriveSeeds expands a base seed into n well-separated, pairwise
// distinct, nonzero seeds for a Sweep's replication axis.
func DeriveSeeds(base uint64, n int) []uint64 { return experiments.DeriveSeeds(base, n) }

// OneService is the single-VIP cell: svc replayed as the cluster's only
// service, e.g. OneService(PoissonService{Lambda0: l0}) for the §V cell.
func OneService(svc experiments.ServiceWorkload) MultiServiceWorkload {
	return experiments.OneService(svc)
}

// Calibrate measures λ0 (§V-A's bootstrap) by a speculative-parallel
// ladder search: each round probes Calibration.ProbeFan rates
// concurrently, landing within one bisection tolerance of the serial
// search in ~ProbeFan× fewer serial rounds.
func Calibrate(cfg Calibration) experiments.CalibrationResult { return experiments.Calibrate(cfg) }

// CalibrateCached is Calibrate behind a process-wide cache keyed by the
// cluster fingerprint — sweeps and figures sharing a topology calibrate
// it once.
func CalibrateCached(cfg Calibration) experiments.CalibrationResult {
	return experiments.CalibrateCached(cfg)
}

// Legacy figure entry points. Each is a one-line wrapper over a
// Scenario/Sweep composition in internal/experiments — prefer building
// Sweeps directly for new workloads; these survive for the paper's
// artifacts and existing callers.

// RunFig2 sweeps mean response time vs normalized load (figure 2).
func RunFig2(cfg Fig2Config) experiments.Fig2Result { return experiments.RunFig2(cfg) }

// RunFig3 runs the high-load CDF at ρ=0.88 (figure 3).
func RunFig3(cfg CDFConfig) CDFResult { return experiments.RunFig3(cfg) }

// RunFig4 records instantaneous load and fairness timelines (figure 4).
func RunFig4(cfg Fig4Config) experiments.Fig4Result { return experiments.RunFig4(cfg) }

// RunFig5 runs the light-load CDF at ρ=0.61 (figure 5).
func RunFig5(cfg CDFConfig) CDFResult { return experiments.RunFig5(cfg) }

// RunWiki replays a (synthetic) Wikipedia day under RR and SR4, producing
// the data behind figures 6, 7 and 8.
func RunWiki(cfg WikiConfig) experiments.WikiResult { return experiments.RunWiki(cfg) }

// RunAllAblations executes the design-choice studies: candidate count,
// threshold, SRdyn window, selection scheme, backlog (see AblationConfig).
func RunAllAblations(cfg AblationConfig) []experiments.AblationResult {
	return experiments.RunAllAblations(cfg)
}

// RunRetransmitAblation compares abort-on-overflow (RST) against silent
// drops + client SYN retransmission under overload — the measurement-
// hygiene decision of §IV-C.
func RunRetransmitAblation(cfg RetransmitConfig) experiments.RetransmitResult {
	return experiments.RunRetransmitAblation(cfg)
}

// RunHetero runs RR/SR4/SRdyn on a cluster with mixed core counts — the
// capacity-shedding extension the local-threshold design enables.
func RunHetero(cfg HeteroConfig) experiments.HeteroResult { return experiments.RunHetero(cfg) }

// RunFailover kills an LB replica mid-run and measures the RT/refusal
// transient, comparing consistent-hash selection + miss-fallback against
// random selection — the stateless-failover story of §II-B, measured.
func RunFailover(cfg FailoverConfig) experiments.FailoverResult { return experiments.RunFailover(cfg) }

// RunResilience ablates {stateless restart, chash miss-fallback, warm
// handoff} through replica-kill, rack-loss and rolling-upgrade
// schedules, reporting completion rates with CIs per (scenario, mode).
func RunResilience(cfg ResilienceConfig) experiments.ResilienceResult {
	return experiments.RunResilience(cfg)
}

// RunChurn drains and re-adds part of the server pool under load,
// comparing how much of the capacity squeeze each policy passes through
// to clients, steady vs churning, with CIs across seeds. The schedule is
// rate-relative: one pair of variants serves the whole load sweep.
func RunChurn(cfg ChurnConfig) experiments.ChurnResult { return experiments.RunChurn(cfg) }

// RunMultiService drives three heterogeneous services — web Poisson,
// Wikipedia-day replay, bursty batch — concurrently through the shared
// LB, sweeping load under each policy and reporting per-service
// response-time and completion rows (with CIs across seeds).
func RunMultiService(cfg MultiServiceConfig) experiments.MultiServiceResult {
	return experiments.RunMultiService(cfg)
}

// RunInterference sweeps a bursty batch service's load against a pinned
// web service on ONE shared server pool and reports each policy's
// per-victim p99/completion degradation (with CIs across seeds) — the
// cross-service contention measurement shared-backend deployments care
// about.
func RunInterference(cfg InterferenceConfig) experiments.InterferenceResult {
	return experiments.RunInterference(cfg)
}

// RunPolicies runs the load-feedback policy ablation: {random2, chash2,
// wleastload, flowlet} over the cross-service interference workload and
// its pool-churn variant, with the telemetry plane enabled and clients
// closing connections explicitly so flowlet boundaries exist. Reports
// the per-victim p99/completion grid plus flowlet re-steer counts.
func RunPolicies(cfg PoliciesConfig) experiments.PoliciesResult {
	return experiments.RunPolicies(cfg)
}

// RunRhoGrid runs the policy ablation over a full web-ρ × batch-ρ load
// matrix on one shared pool (Sweep.LoadGrid), optionally under
// adaptive replication (RhoGridConfig.Adaptive): every cell runs at
// least MinSeeds replicates, easy cells stop once their relative CI95
// hits the target, and cells at policy-crossover boundaries absorb the
// saved budget. Reports per-(grid point, policy, service) rows and
// per-policy ASCII heatmaps, byte-identical at any worker count.
func RunRhoGrid(cfg RhoGridConfig) experiments.RhoGridResult {
	return experiments.RunRhoGrid(cfg)
}

// RunVIPScale sweeps the advertised service count (default 100 → 10k
// VIPs over shared pools, via testbed.GenerateTopology) per selection
// scheme and measures the per-packet dispatch cost of the SYN and
// steered paths by driving the LB's Handle loop directly — the
// latency-vs-#services figure whose headline is the flat curve.
func RunVIPScale(cfg VIPScaleConfig) experiments.VIPScaleResult {
	return experiments.RunVIPScale(cfg)
}

// RunHorizon executes the constant-memory soak: a single very long
// open-loop cell (default 10⁸ queries at ρ = 0.85) measured entirely
// through streaming sketches, sampling the heap as it goes. ctx cancels
// mid-run; the result then holds the partial measurement.
func RunHorizon(ctx context.Context, cfg HorizonConfig) (experiments.HorizonResult, error) {
	return experiments.RunHorizon(ctx, cfg)
}

// BuildTopology compiles a declarative Topology into a wired cluster —
// the low-level entry point for hand-built multi-LB / multi-VIP
// scenarios; experiments usually go through Cluster or a Sweep's
// ClusterVariant axis instead.
func BuildTopology(top Topology) *testbed.Testbed { return testbed.Build(top) }

// QuickComparison runs a small RR-vs-SR4 comparison at the given load and
// returns (rrMean, sr4Mean) — the two-line demo examples/quickstart ends
// with. It calibrates the cluster once and runs both policies as one
// parallel Sweep against the same calibrated Poisson workload.
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
