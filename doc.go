// Package srlb is a from-scratch Go implementation of SRLB — the load
// balancer of Desmouceaux et al., "SRLB: The Power of Choices in Load
// Balancing with Segment Routing" (IEEE ICDCS 2017) — together with every
// substrate needed to reproduce the paper's evaluation: a wire-accurate
// IPv6 Segment Routing data plane, a discrete-event datacenter testbed
// with processor-sharing application servers, the paper's connection
// acceptance policies, a family of workloads, and a composable experiment
// API that regenerates every figure of the paper and scales to new
// scenarios.
//
// # Service Hunting in one paragraph
//
// A client SYN for a virtual IP reaches the load balancer, which inserts
// an IPv6 Segment Routing Header listing two randomly chosen candidate
// servers followed by the VIP, and forwards to the first. Each candidate's
// virtual router consults a purely local policy ("fewer than c busy Apache
// workers?") and either delivers the connection to the application or
// forwards it along the segment list; the penultimate candidate must
// accept. The accepting server's SYN-ACK carries a segment list
// [server, LB, client], letting the LB learn — in the forwarding plane,
// with no out-of-band signaling — which server owns the flow; all later
// packets of the flow are steered with a one-segment SRH.
//
// # The experiment API: Scenario, Workload, Sweep, Runner
//
// Experiments compose from four values of internal/experiments instead
// of per-figure entry points:
//
//   - Workload — an arrival process plus demand model. The open-loop
//     cell is a MultiServiceWorkload; OneService(PoissonService{…}) is
//     the §V cell and OneService(BurstyService{…}) its flowlet-style
//     on/off MMPP variant. WikiWorkload (the §VI synthetic Wikipedia
//     day) is the §VI replay.
//   - Scenario — one cell: cluster × policy × workload × load point.
//   - Sweep — the cross product policies × load points × seeds over one
//     workload.
//   - Runner — context-aware worker-pool execution. Every random stream
//     derives from the scenario value alone, so results are identical for
//     1 worker and N, and a cancelled sweep returns promptly with the
//     cells finished so far.
//
// A complete figure-2-style sweep, replicated over 5 seeds and
// aggregated into per-cell mean ± 95% CI (every recipe here spells a
// name with the package that defines it):
//
//	cal := experiments.CalibrateCached(experiments.CalibrationConfig{Cluster: cluster})
//	agg, _ := experiments.Runner{}.RunSweepStats(ctx, experiments.Sweep{
//		Cluster:  cluster,
//		Policies: experiments.PaperPolicies(),
//		Loads:    []float64{0.2, 0.61, 0.88},
//		Seeds:    experiments.DeriveSeeds(1, 5),
//		Workload: experiments.OneService(experiments.PoissonService{Lambda0: cal.Lambda0}),
//	})
//	cell := agg.Cell(1, 2) // SR4, ρ=0.88: mean ± CI over the 5 seeds
//	fmt.Printf("%v ± %v (n=%d)\n", cell.MeanRT(), cell.MeanCI95(), cell.N())
//
// RunSweep keeps the raw per-seed cells (SweepResult.Cell(pi, li, si));
// Aggregate folds them after the fact, and RunSweepStats is the two in
// one call. A raw cell's CellOutcome carries its typed payloads: Cluster
// (per-server completions, SYN retransmits, flowlet re-steers), Timeline
// (40 issue-time bins), Wiki for the §VI replays, LoadSamples for fig. 4.
// The paper's artifacts remain available as one-line wrappers
// (experiments.RunFig2, RunFig3, RunFig4, RunFig5, RunWiki, RunHetero,
// RunFailover, RunChurn, …), each a thin Scenario/Sweep composition.
// The Poisson-family wrappers take one Base — Cluster, its capacity
// rate Lambda0 (0 calibrates once per cluster), Queries, Seeds, Workers
// and Progress, with one set of defaults. Only the multi-service and
// ρ-grid experiments keep a config of their own, Base plus one knob;
// Fig2Config and CalibrationConfig spell Base's fields out flat, because
// the benchmark builds them as keyed literals. The studies report one
// row type: the ablations, retransmit, hetero, churn and resilience
// rows are ServiceRows like the multi-service family's, the
// configuration's label in Variant, HeteroRow and RetransmitRow adding
// their own columns. cmd/srlb-bench regenerates all of them and emits a
// machine-readable per-cell summary per sweep (BENCH_*.json, documented
// in docs/RESULTS_SCHEMA.md).
//
// # Topologies: LB replicas, multiple VIPs, lifecycle events
//
// Cluster construction is declarative (docs/TOPOLOGY.md): a
// testbed.Topology declares server pools (Topology.Pools) and VIPs, each naming its pool
// by index — VIPs naming the same pool contend for the same workers —
// with its own selection scheme, miss-fallback and demand model;
// attaches N LB replicas through anycast/ECMP (the Maglev/Ananta
// deployment model that §II-B's consistent-hash selection enables); and
// schedules lifecycle Events (AddServer and DrainServer on a pool,
// FailReplica and RecoverReplica) at virtual times during the run. Warm
// recovery, rack loss and rolling upgrades are RunResilience's
// schedules (below). testbed.Build compiles the value to wired nodes;
// experiments.ClusterConfig remains the one-line single-LB/single-VIP
// wrapper, so existing figures are untouched. Sweeps gain the matching axis: Sweep.Variants
// derives topology variants (replica counts, event schedules) from the
// base cluster, crossed with policies × loads × seeds, deterministic at
// any worker count.
//
// Three first-class experiments ride on this: RunFailover kills an LB
// replica mid-run and measures the client-observed transient (with the
// consistent-hash fallback, completions hold at 100% through the kill;
// with random selection, multi-replica operation is structurally
// broken), RunChurn drains and re-adds servers under load, reporting
// each policy's churn penalty with CIs, and RunMultiService drives
// heterogeneous services concurrently through the shared balancer
// (below).
//
// Failover deepens into warm handoff: flowtable.Table.Snapshot/Restore (and
// the core.LoadBalancer ExportFlows/ImportFlows wrappers) merge flow
// bindings with their deadlines and closing state — never overwriting
// a newer local entry — so a recovering replica can inherit a
// survivor's table at the recover instant instead of restarting cold.
// RunResilience (`srlb-bench -experiment resilience`) ablates
// {stateless restart, consistent-hash miss-fallback, warm handoff}
// through replica-kill, rack-loss and rolling-upgrade schedules under
// client SYN retransmission, emitting completion-rate facets with CIs
// (extension_resilience.tsv, and BENCH_resilience.json's cells and
// per-scenario tables).
//
// Event times compose with load sweeps by being fractions: an event
// fires at fraction Event.Frac of testbed.Topology.Span, the run's
// arrival span, which every workload sets per load point, so a single
// drain/add schedule means the same thing at every ρ. RunChurn's steady-vs-churn variant pair sweeps all
// of its loads this way.
//
// # Multi-service workloads: several VIPs, one run
//
// MultiServiceWorkload replays one arrival stream per VIP — any mix of
// PoissonService, BurstyService and WikiService — together against a
// cluster sharing the LB replicas, the many-services regime in which the
// power-of-choices argument compounds. It is the one engine of every
// open-loop cell: a one-service workload (OneService) is the single-VIP
// cell, seeded and labelled as the §V cell always was. Each query is
// tagged with its VIP and the outcome is reported both aggregate and per
// service (CellOutcome.PerVIP), with conservation per VIP (offered ==
// completed + refused + unfinished); the replicated per-service
// breakdown (CellStats.VIPs) starts at two services:
//
//	cal := experiments.CalibrateCached(experiments.CalibrationConfig{Cluster: cluster})
//	agg, _ := experiments.Runner{}.RunSweepStats(ctx, experiments.Sweep{
//		Cluster:  cluster,
//		Policies: []experiments.PolicySpec{experiments.RR(), experiments.SRc(4)},
//		Loads:    []float64{0.6, 0.85},
//		Seeds:    experiments.DeriveSeeds(1, 5),
//		Workload: experiments.MultiServiceWorkload{
//			Services: []experiments.ServiceSpec{
//				{Name: "web", Workload: experiments.PoissonService{Lambda0: cal.Lambda0}},
//				{Name: "wiki", Workload: experiments.WikiService{Day: wiki.Config{Compression: 288}}, Pool: 1},
//				{Name: "batch", Workload: experiments.BurstyService{Lambda0: cal.Lambda0 / 2, PeakFactor: 4}, Pool: 2},
//			},
//			Pools: []testbed.PoolSpec{{}, {}, {Servers: 6}}, // one pool per service
//		},
//	})
//	web := agg.Cell(1, 1).VIPs[0] // SR4 × ρ=0.85: web service, mean ± ci95
//	fmt.Printf("web: %.0f ms ± %.0f\n", web.Mean.Dist.Mean*1e3, web.Mean.Dist.CI95*1e3)
//
// RunMultiService packages the canonical three-service mix (web Poisson
// + Wikipedia replay + bursty batch) as
// `srlb-bench -experiment multiservice`, emitting per-policy per-service
// rows (extension_multiservice.tsv) and BENCH_multiservice.json cells
// with per-VIP breakdowns.
//
// Control-plane scale is its own axis: testbed.GenerateTopology
// mass-produces 1k–10k-VIP topologies over shared pools
// (index-deterministic addresses, pools targeted by index), the LB
// dispatches them through an indexed O(1) table (one map lookup per
// packet; Maglev tables interned per backend set), and RunVIPScale
// (`srlb-bench -experiment vipscale`) measures per-packet SYN/steered
// dispatch cost over {100, 1k, 10k} services per scheme — the flat
// latency-vs-#services curve, with the complexity class pinned by
// TestDispatchComplexityClass (internal/experiments).
//
// The contention regime layers on top: services whose ServiceSpec.Pool
// names the same MultiServiceWorkload.Pools entry share ONE server
// pool, and MultiServiceWorkload.ServiceLoads gives each service its
// own load axis (a nonzero entry pins a victim's ρ, 0 tracks the sweep's
// knob), so a batch surge ρ_b can sweep against a steady web ρ_w over
// the same workers. RunInterference packages that measurement as
// `srlb-bench -experiment interference`: per-victim p99/completion
// degradation per policy as the aggressor ramps
// (extension_interference.tsv). A WikiService with Day.Seed set replays
// the same day's arrivals and pages on every seed.
//
// RunMultiService, RunInterference, RunPolicies and RunRhoGrid report
// one table: ServiceRow, a (variant, load, policy, service) outcome with
// an "all" aggregate per cell. InterferenceRow adds the degradation
// columns (P99Degradation, OKDrop) and PoliciesRow the flowlet Resteers
// count; rhogrid rows carry the grid point in LoadVec with per-cell N
// and StopReason.
//
// # Load feedback and flowlet-grained policies
//
// The paper's schemes are deliberately feedback-free; their natural
// competitors are not. internal/feedback is the out-of-band telemetry
// plane those competitors need — servers publish EWMA-smoothed load
// reports on a virtual-time tick into a per-(VIP, server) view with
// freshness tracking (a report older than the TTL demotes every
// consumer to its load-oblivious fallback; failed servers go stale by
// silence) — and internal/selection gains the stateful scheme surface
// (Stateful/Resteerer, probed once at VIP-compile time) plus two
// consumers: WeightedLeastLoad re-ranks the power-of-two candidates by
// reported load, and Flowlet re-steers established flows onto
// less-loaded servers at flowlet-gap boundaries, rewriting the LB's
// flow table mid-connection (never SYNs or RSTs; FuzzFlowletGaps locks
// the invariants). RunPolicies packages the four-way ablation
// {random2, chash2, wleastload, flowlet} over the interference workload
// in steady and churn variants as `srlb-bench -experiment policies`
// (extension_policies.tsv, BENCH_policies.json's cells and table); it
// is the experiment layer's way onto the feedback plane, which
// docs/TOPOLOGY.md covers.
//
// # Grid sweeps and adaptive replication
//
// Sweep.LoadGrid generalizes the scalar load axis to a vector one: the
// grid is the cross product of per-service ρ-axes, each point a
// ρ-vector that pins every service of a MultiServiceWorkload to its
// entry. One
// sweep then enumerates a full web-ρ × batch-ρ matrix instead of
// pinning the victim. Because the matrix multiplies cells, Sweep.
// Adaptive sizes each cell's replication on the fly: a mandatory floor
// of MinSeeds (3) replicates, then one seed per round until the
// relative CI95 of the cell's mean response time drops under CITarget
// or MaxSeeds is hit, with policy-crossover-boundary cells held to a
// tighter target. Stop decisions are taken at round barriers from
// completed-seed data in canonical cell order, and every cell's round-k
// replicate uses the k-th seed of one shared universe, so results stay
// byte-identical at any worker count. Fixed replication is the same
// loop cut after its first round, which runs every seed of Sweep.Seeds
// in one batch; Runner.RunSweep runs either. RunRhoGrid packages the four-way
// policy ablation over the grid as `srlb-bench -experiment rhogrid`
// (extension_rhogrid.tsv, per-policy ASCII heatmaps via
// plot.RenderHeatmaps, BENCH_rhogrid.json cells with load_vec and
// stop_reason).
//
// # Streaming measurement: sketches and the horizon soak
//
// Experiment cells measure through internal/sketch: a mergeable
// log-linear response-time histogram (quantiles within a documented
// ≈0.2% relative error at the default precision; count/mean/min/max
// exact) plus outcome counters, folded in as each query completes. The
// testbed generator keeps no per-query results: each outcome folds into
// its SketchSink (Generator.Sink: per-VIP sketches, a total, and a
// testbed.Timeline of 40 issue-time bins) and an optional OnResult
// callback and is gone, so a cell holds constant memory regardless of
// horizon length.
//
// Every cell — Poisson, bursty, wiki day, multi-service, horizon soak —
// is a MultiServiceWorkload, and MultiServiceWorkload.run is the one
// caller of the open-loop replay engine (internal/experiments/replay.go);
// the wiki day, figure 4 and the horizon soak add their own accounting as
// hooks on OneService(...).run; failover reads CellOutcome.Timeline. The
// cell hands the engine the topology, one arrival stream per VIP, and the
// arrival span. The engine sets the topology's Span, at whose fractions
// the events fire, resolves the feedback horizon against it, builds the
// cluster, installs the sketch sink, pumps each stream one arrival ahead
// without allocating, runs the simulator under the context and drains
// what is left. RunHorizon
// pushes that to 10⁸ open-loop queries with a flat heap
// (`srlb-bench -experiment horizon`); `bash bench/run.sh` is the
// performance ledger (bench/README.md), and the hot paths' allocation
// counts are tier-1 testing.AllocsPerRun gates in their own packages.
//
// On the data plane every hop checks the packet as the wire codec would
// and hands the receiver a copy equal, field for field, to what parsing
// its bytes gives (packet.Packet.Check, packet.CopyInto); netsim's
// VerifyChecksums runs the codec itself, marshal → wire bytes → parse,
// as the reference the copy is tested against. A delivered packet
// belongs to the node that receives it — the LB and the virtual routers
// rewrite and re-send it in place — but only until Handle returns:
// internal/netsim recycles the Packet, the buffer its payload lives in
// and the SRH its routing header was copied or parsed into (CopyInto and
// ParseInto overwrite whatever header p.SRH points at on entry) for the
// next delivery. Whatever must outlive the call — a tap's capture, a
// test's assertion — is a Packet.Clone, never a kept pointer. Nodes count
// what they do as a data-plane pipeline counts in register arrays: each
// layer declares its counter names once (a metrics.Schema) and adds to a
// slot by index, so no packet hashes a string to be counted; a node's
// Counts.Get and Counts.Keys read the same counters by name.
//
// The same rule runs the other way for what a node sends. Connection
// set-up reuses its storage: the LB's hunt header is one SRH the
// dispatcher rewrites per SYN (srv6's SetPath), a selection scheme's
// candidate list is the scheme's scratch until its next Pick, and the
// server's connection record and the application's request come from
// per-router and per-server free lists with their callbacks bound once.
// All of it is sound because Send has copied or serialised what it needs
// before it returns (livenet marshals under the LB's lock), so nothing
// reads a header, a candidate list or a record after its owner has moved
// on. Once warm, a query allocates only the steered packet's header
// (core.handleSteered).
//
// # Interpreting results: seeds, CI width, choosing Sweep.Seeds
//
// Every simulation cell is a pure function of its scenario value, so a
// single cell is exactly reproducible — but it is still one draw from
// the distribution the paper's claims are about. Replication is the
// Seeds axis: Sweep.Seeds (use DeriveSeeds to expand a base seed into
// well-separated streams) reruns every (policy, load) cell once per
// seed, and Runner.RunSweepStats folds the replicates into
// mean ± 95% confidence intervals (a SweepStats of per-cell CellStats,
// each metric a Dist from internal/stats).
//
// How to read the numbers:
//
//   - A CellStats metric (Mean, Median, P95, P99) is the across-seed
//     mean of the per-seed statistic; its Dist.CI95 is the Student-t
//     95% half-width. Report "mean ± ci95 (n=seeds)".
//   - N == 1 carries no dispersion information, so its raw Dist.CI95 is
//     +Inf — "unknown", impossible to mistake for a tight interval (the
//     adaptive stopper relies on this). Reporting boundaries (JSON,
//     TSV, plots; Dist.ReportedCI95 and CellStats.MeanCI95) map the
//     non-finite sentinel to 0.
//   - Two policies differ meaningfully when their intervals separate.
//     Overlapping intervals at n=3 are an instruction to add seeds, not
//     a conclusion of equality.
//
// Choosing the number of seeds: CI width shrinks as s/√n·t(n−1), so the
// first few seeds buy the most. On this testbed, 5 seeds resolve the
// headline RR-vs-SR4 gap at high load (a ~2× effect); closely matched
// configurations (SR8 vs SR16 at light load, threshold micro-sweeps)
// need 10–20. Light loads have small variance and converge quickly;
// near saturation (ρ ≳ 0.9) variance explodes and CIs stay wide — that
// width is real signal about the operating regime, not noise to tune
// away. λ0 calibration (Calibrate/CalibrateCached) is itself seeded and
// cached per cluster fingerprint, so replicates share one λ0 rather
// than folding calibration noise into every cell.
//
// # Package map
//
// This root package holds no code. The implementation lives in
// internal packages, which the module's own programs (cmd/, examples/,
// bench/) import directly:
//
//   - internal/core — the load balancer (the paper's contribution): one
//     clock-free Dispatcher plus its discrete-event binding, LoadBalancer
//   - internal/vrouter, internal/agent — per-server router + policies
//   - internal/srv6, internal/ipv6, internal/tcpseg, internal/packet — codecs
//   - internal/appserver — processor-sharing Apache model
//   - internal/des, internal/netsim — simulation kernel and LAN
//   - internal/livenet — real-time goroutine runtime; its load balancer
//     is a goroutine binding of the same dispatcher
//   - internal/wiki, internal/rng — the synthetic Wikipedia day, drawn
//     in memory, and seeded random streams (the workloads themselves
//     live in internal/experiments)
//   - internal/stats — replication statistics: Dist, Replicated,
//     Student-t CIs
//   - internal/sketch — constant-memory streaming metrics: mergeable
//     log-linear histogram (per run and per time bin) and counters
//   - internal/experiments — Scenario/Sweep/Runner, workloads, figures 2–8,
//     λ0 calibration, ablations
//
// examples/quickstart is the two-minute tour, a Sweep on a Runner covers
// anything bigger, and cmd/srlb-bench regenerates every artifact from
// the command line.
//
// Every exported name has a reader: a package-qualified use in another
// package (cmd/, examples/ and bench/ included), the bare name in its
// own, or a pkg.Name in this comment or docs/*.md, which must name an
// export of that internal package. surface_test.go enforces the rule.
package srlb
