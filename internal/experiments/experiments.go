// Package experiments reproduces the paper's complete evaluation: the λ0
// bootstrap of §V-A, the Poisson-workload figures 2–5, the Wikipedia
// replay figures 6–8, and ablations of the design choices the paper
// fixes (§II-B candidate count and selection scheme, §III-A threshold,
// Algorithm 2's window, §IV-C backlog and abort-on-overflow).
//
// Every figure has a Run function that returns structured rows and a
// method that returns the rows the paper plots as a TSV value (tsv.go
// renders every one), so cmd/srlb-bench can regenerate each artifact.
//
// Every cell of every experiment runs through the one open-loop replay
// engine in replay.go; workloads differ only in the topology, the
// per-VIP arrival streams and the arrival span they hand it.
package experiments

import (
	"context"
	"fmt"
	"math/rand/v2"
	"net/netip"
	"time"

	"srlb/internal/agent"
	"srlb/internal/appserver"
	"srlb/internal/feedback"
	"srlb/internal/selection"
	"srlb/internal/sketch"
	"srlb/internal/testbed"
)

// PolicySpec names a complete load-balancing configuration: the number of
// SR candidates and the per-server acceptance policy.
type PolicySpec struct {
	// Name is the label used in figures ("RR", "SR 4", …).
	Name string
	// Candidates is the SR list length (1 = no hunting).
	Candidates int
	// NewAgent builds a fresh acceptance policy per server (SRdyn keeps
	// per-server adaptive state, so one instance per server).
	NewAgent func() agent.Policy
	// Scheme, when non-nil, overrides candidate selection entirely: it
	// builds the VIP's scheme from the pool, the per-VIP rng stream, and
	// the VIP's feedback view (nil when the cluster's feedback plane is
	// disabled — load-aware schemes must then degrade to their oblivious
	// fallback). Candidates and ConsistentHash are ignored when set.
	Scheme testbed.SchemeFn
}

// RR is the paper's baseline: one random server, no Service Hunting.
func RR() PolicySpec {
	return PolicySpec{
		Name:       "RR",
		Candidates: 1,
		NewAgent:   func() agent.Policy { return agent.Always{} },
	}
}

// SRc is the static policy (Algorithm 1) with threshold c over two random
// candidates.
func SRc(c int) PolicySpec {
	return PolicySpec{
		Name:       fmt.Sprintf("SR %d", c),
		Candidates: 2,
		NewAgent:   func() agent.Policy { return agent.NewStatic(c) },
	}
}

// SRdyn is the adaptive policy (Algorithm 2) over two random candidates.
func SRdyn() PolicySpec {
	return PolicySpec{
		Name:       "SR dyn",
		Candidates: 2,
		NewAgent:   func() agent.Policy { return agent.NewDynamic(0) },
	}
}

// SRcK is SRc generalized to k candidates (ablation: the power of k
// choices).
func SRcK(c, k int) PolicySpec {
	return PolicySpec{
		Name:       fmt.Sprintf("SR %d (k=%d)", c, k),
		Candidates: k,
		NewAgent:   func() agent.Policy { return agent.NewStatic(c) },
	}
}

// PaperPolicies returns the five configurations of figures 2, 3 and 5:
// RR, SR4, SR8, SR16, SRdyn.
func PaperPolicies() []PolicySpec {
	return []PolicySpec{RR(), SRc(4), SRc(8), SRc(16), SRdyn()}
}

// Random2 is plain power-of-two random placement with no acceptance
// gating — the load-oblivious anchor of the policy ablation (the scheme
// every load-aware policy degrades to when its signal goes stale).
func Random2() PolicySpec {
	return PolicySpec{
		Name:       "random2",
		Candidates: 2,
		NewAgent:   func() agent.Policy { return agent.Always{} },
	}
}

// CHash2 selects two candidates from the Maglev consistent-hash table —
// the connection-affine anchor of the policy ablation.
func CHash2() PolicySpec {
	return PolicySpec{
		Name: "chash2",
		Scheme: func(servers []netip.Addr, _ *rand.Rand, _ *feedback.VIPView) selection.Scheme {
			s, err := selection.NewConsistentHash(servers, 0)
			if err != nil {
				panic(err)
			}
			return s
		},
		NewAgent: func() agent.Policy { return agent.Always{} },
	}
}

// WeightedLeastLoadPolicy re-ranks two random candidates by the servers'
// reported load (Charon-style weighted least-load over the feedback
// plane); with the plane disabled or any report stale it degrades to
// random2.
func WeightedLeastLoadPolicy() PolicySpec {
	return PolicySpec{
		Name: "wleastload",
		Scheme: func(servers []netip.Addr, r *rand.Rand, view *feedback.VIPView) selection.Scheme {
			var lv selection.LoadView
			if view != nil {
				lv = view
			}
			return selection.NewWeightedLeastLoad(servers, 2, r, lv)
		},
		NewAgent: func() agent.Policy { return agent.Always{} },
	}
}

// FlowletPolicy places like random2 but re-steers established flows at
// flowlet-gap boundaries onto less-loaded servers (gap ≤ 0 takes
// selection.DefaultFlowletGap). With the feedback plane disabled flows
// never move.
func FlowletPolicy(gap time.Duration) PolicySpec {
	return PolicySpec{
		Name: "flowlet",
		Scheme: func(servers []netip.Addr, r *rand.Rand, view *feedback.VIPView) selection.Scheme {
			var lv selection.LoadView
			if view != nil {
				lv = view
			}
			return selection.NewFlowlet(servers, gap, r, lv)
		},
		NewAgent: func() agent.Policy { return agent.Always{} },
	}
}

// ablationPolicies returns the four-way scheme ablation of RunPolicies:
// {random2, chash2, wleastload, flowlet}, all with Always-accepting
// servers so the comparison isolates candidate selection, the flowlet
// policy at selection.DefaultFlowletGap.
func ablationPolicies() []PolicySpec {
	return []PolicySpec{Random2(), CHash2(), WeightedLeastLoadPolicy(), FlowletPolicy(0)}
}

// studyPolicies are the policies the churn, interference and
// multi-service studies compare: RR, SR4 and SRdyn.
func studyPolicies() []PolicySpec { return []PolicySpec{RR(), SRc(4), SRdyn()} }

// ClusterConfig fixes the testbed parameters shared by all experiments.
// The zero value is the paper's platform: 12 servers × (32 workers,
// 2 cores, backlog 128, abort-on-overflow).
type ClusterConfig struct {
	Seed    uint64
	Servers int
	Server  appserver.Config
	// ConsistentHash switches candidate selection from uniform random to
	// the Maglev table (ablation).
	ConsistentHash bool
	// ServerOverride, when non-nil, configures server i — heterogeneous
	// clusters with mixed core counts or worker pools. A zero Config falls
	// back to Server.
	ServerOverride func(i int) appserver.Config

	// Replicas is the number of LB replicas behind the anycast VIP
	// (default 1 — the paper's single LB). With more than one, flows are
	// ECMP-spread across stateless replicas (the Maglev/Ananta model).
	Replicas int
	// MissFallback installs a consistent-hash steering fallback on each
	// replica: mid-flow packets that miss the flow table (cross-replica
	// ECMP, replica restart) are hashed to a server instead of dropped.
	MissFallback bool
	// Events is the lifecycle schedule (server drain/add/fail, replica
	// fail/recover) applied at virtual times during each run.
	Events []testbed.Event

	// Feedback enables the server-load telemetry plane: servers publish
	// load reports every Feedback.Interval and load-aware policy schemes
	// (WeightedLeastLoadPolicy, FlowletPolicy) read them through a
	// freshness-tracked view. A zero Horizon is filled in per run with
	// the cell's own simulation horizon.
	Feedback feedback.Config
}

func (c ClusterConfig) withDefaults() ClusterConfig {
	if c.Servers == 0 {
		c.Servers = 12
	}
	if c.Server.Workers == 0 {
		c.Server = appserver.Default()
	}
	return c
}

// lambda0 resolves a λ0 setting: the value given, or — for 0 — the
// cluster's λ0 measured through the process-wide calibration cache, so
// every figure and study on one cluster calibrates once.
func (c ClusterConfig) lambda0(given float64) float64 {
	if given != 0 {
		return given
	}
	cal := CalibrateCached(CalibrationConfig{Cluster: c})
	if cal.Err != nil {
		panic("experiments: " + cal.Err.Error())
	}
	return cal.Lambda0
}

// Base is the §V protocol every Poisson-family experiment runs on: the
// cluster and its calibrated capacity, the queries replayed per cell,
// the replication axis, and how the cells are run.
type Base struct {
	Cluster ClusterConfig
	// Lambda0 is the cluster's capacity rate in queries/sec, the rate
	// every normalized load ρ scales (0 ⇒ measured via CalibrateCached
	// on Cluster).
	Lambda0 float64
	// Queries per cell (default 20000, the paper's batch).
	Queries int
	// Seeds is the replication axis (default: the cluster seed alone).
	// With several seeds every cell reports mean ± 95% CI across
	// replicates — use DeriveSeeds to expand a base seed.
	Seeds []uint64
	// Workers bounds the experiment's parallelism (0 = GOMAXPROCS).
	Workers int
	// Progress, if non-nil, receives one line per finished cell.
	Progress func(string)
}

func (b Base) withDefaults() Base {
	b.Cluster = b.Cluster.withDefaults()
	if b.Queries == 0 {
		b.Queries = 20000
	}
	if len(b.Seeds) == 0 {
		b.Seeds = []uint64{b.Cluster.Seed}
	}
	return b
}

// resolved is b with its defaults and its λ0 resolved.
func (b Base) resolved() Base {
	b = b.withDefaults()
	b.Lambda0 = b.Cluster.lambda0(b.Lambda0)
	return b
}

// poisson is the §V arrival process: Queries Poisson arrivals per cell
// at load × Lambda0. b must be resolved.
func (b Base) poisson() PoissonService {
	return PoissonService{Lambda0: b.Lambda0, Queries: b.Queries}
}

// runner returns the worker pool the experiment's cells run on.
func (b Base) runner() Runner { return Runner{Workers: b.Workers, Progress: b.Progress} }

// MeanDemand is the paper's CPU cost distribution mean for the Poisson
// workload: an exponential of mean 100 ms (§V-A).
const MeanDemand = 100 * time.Millisecond

// TheoreticalCapacity returns servers × cores / E[S] — the fluid-limit
// service capacity in queries/sec, a sanity reference for Calibrate.
func (c ClusterConfig) TheoreticalCapacity() float64 {
	c = c.withDefaults()
	return float64(c.Servers) * c.Server.Cores / MeanDemand.Seconds()
}

// vipSpec lowers the cluster + policy pair into one testbed.VIPSpec's
// scheme and fallback — the place the selection knobs (ConsistentHash,
// MissFallback) map onto VIPSpec fields. Multi-service workloads build
// one such spec per service, setting its pool and demand model per VIP.
func (c ClusterConfig) vipSpec(spec PolicySpec) testbed.VIPSpec {
	var vip testbed.VIPSpec
	k := spec.Candidates
	if k <= 0 {
		k = 2
	}
	chash := func(servers []netip.Addr) selection.Scheme {
		s, err := selection.NewConsistentHash(servers, 0)
		if err != nil {
			panic(err)
		}
		return s
	}
	if spec.Scheme != nil {
		// The policy carries its own scheme constructor.
		vip.Scheme = spec.Scheme
	} else if c.ConsistentHash && k == 2 {
		vip.Scheme = func(servers []netip.Addr, _ *rand.Rand, _ *feedback.VIPView) selection.Scheme {
			return chash(servers)
		}
	} else {
		vip.Scheme = func(servers []netip.Addr, r *rand.Rand, _ *feedback.VIPView) selection.Scheme {
			return selection.NewRandom(servers, k, r)
		}
	}
	if c.MissFallback {
		vip.Fallback = chash
	}
	return vip
}

// PoissonRun is the outcome of one (policy, rate) Poisson experiment.
type PoissonRun struct {
	Spec       PolicySpec
	RatePerSec float64
	Queries    int
	// RT sketches the response times of successful queries.
	RT *sketch.Histogram
	// Refused counts RST-refused connections (TCP backlog overflow).
	Refused int
	// Unfinished counts queries still pending at horizon end.
	Unfinished int
}

// OKFraction returns the fraction of queries that completed.
func (r PoissonRun) OKFraction() float64 {
	if r.Queries == 0 {
		return 0
	}
	return float64(r.RT.Count()) / float64(r.Queries)
}

// RunPoisson replays the §V workload: `queries` arrivals at ratePerSec
// with Exp(MeanDemand) CPU demands, under the given policy. The returned
// testbed allows callers to inspect server-side state; hooks (may be nil)
// observe the run.
type PoissonHooks struct {
	// OnResult observes every query completion.
	OnResult func(testbed.Result)
	// Testbed observes the cluster right after construction (before any
	// arrival), e.g. to install load sampling.
	Testbed func(tb *testbed.Testbed, horizon time.Duration)
}

// RunPoisson executes the experiment and returns its outcome. It is the
// serial, hook-capable face of the one-service Poisson cell: the same
// OneService(PoissonService) run at load 1, so their results coincide.
func RunPoisson(cluster ClusterConfig, spec PolicySpec, ratePerSec float64, queries int, hooks PoissonHooks) PoissonRun {
	w := OneService(PoissonService{Lambda0: ratePerSec, Queries: queries})
	out, _ := w.run(context.Background(), cluster, spec, 1, hooks)
	return PoissonRun{
		Spec: spec, RatePerSec: ratePerSec, Queries: queries,
		RT: out.RT, Refused: out.Refused, Unfinished: out.Unfinished,
	}
}
