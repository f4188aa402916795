// Topology is the declarative cluster-construction API: server pools
// (Topology.Pools); VIPs, each selecting over one pool by its index with
// its own scheme, so VIPs naming the same pool contend for the same
// workers; N load-balancer replicas joined to the VIPs through netsim's
// anycast/ECMP groups (the Maglev/Ananta deployment model the paper's
// §II-B consistent-hashing selection enables); and a schedule of
// lifecycle Events — server drain/add/fail targeting a pool, replica
// fail/recover — applied at fractions of the run's arrival span.
//
// Build compiles a Topology into wired nodes. Topology{} is one default
// pool behind one VIP: exactly the single-LB/single-VIP cluster the
// paper's figures run on, stream for stream (parity-pinned in
// TestImplicitPoolCompiledParity).

package testbed

import (
	"fmt"
	"math"
	"math/rand/v2"
	"net/netip"
	"sort"
	"time"

	"srlb/internal/addrtab"
	"srlb/internal/agent"
	"srlb/internal/appserver"
	"srlb/internal/core"
	"srlb/internal/des"
	"srlb/internal/feedback"
	"srlb/internal/flowtable"
	"srlb/internal/netsim"
	"srlb/internal/rng"
	"srlb/internal/selection"
	"srlb/internal/vrouter"
)

// VIPAddr returns the service address of VIP v (0-based). VIP 0 is the
// legacy testbed VIP. Addresses are index-deterministic — derived
// arithmetically, identical to the historical "2001:db8:f00d::%x"
// string form for every hextet-sized index and well-defined far beyond
// it (10k-VIP topologies walk straight through the /64).
func VIPAddr(v int) netip.Addr { return addrWithTail(vipBase, uint64(v)+1) }

// SharedPoolServerAddr returns the physical address of server i of pool
// p (Topology.Pools order): 2001:db8:5:<p>::<i+1>, p in hextet 3 and i+1
// in the low 64 bits. Pool 0 is the ServerAddr space, so the paper's
// cluster keeps its addresses.
func SharedPoolServerAddr(p, i int) netip.Addr {
	if p == 0 {
		return ServerAddr(i)
	}
	if p > 0xffff {
		panic(fmt.Sprintf("testbed: pool index %d exhausts the 2001:db8:5::/48 space", p))
	}
	a := serverBase.As16()
	a[6] = byte(p >> 8)
	a[7] = byte(p)
	return addrWithTail(netip.AddrFrom16(a), uint64(i)+1)
}

// SchemeFn builds a candidate-selection scheme over the current server
// pool, whose list it may keep but never writes (every VIP of the pool
// reads the same array). When an Event changes the pool, it is invoked
// again with the new pool and the *same* rng, so the scheme's random
// stream continues deterministically across churn. (Stateful schemes are
// instead kept and re-pointed via selection.Stateful.Update, preserving
// their accumulated state.) view is the replica's projection of the
// feedback plane for this VIP, nil when Topology.Feedback is disabled:
// a load-aware scheme then degrades to its load-oblivious form, and a
// plain scheme ignores it.
type SchemeFn func(servers []netip.Addr, r *rand.Rand, view *feedback.VIPView) selection.Scheme

// FallbackFn builds the miss-fallback scheme over the current pool — the
// steering path for packets whose flow the replica never learned
// (cross-replica ECMP, replica restart). It takes no rng: a fallback is
// only useful when it is a deterministic function of the flow (consistent
// hashing), so that every replica agrees without shared state.
type FallbackFn func(servers []netip.Addr) selection.Scheme

// PoolSpec declares one server pool. Two or more VIPs naming the same
// pool (VIPSpec.Pool) select over the *same* physical servers and
// contend for the same workers — the shared-backend regime of
// Maglev-style deployments, where one service's surge is another's
// queueing delay. Zero fields take the paper's values.
type PoolSpec struct {
	// Name, when set, labels the pool's servers ("<name>-server-<i>"
	// instead of "server-<i>").
	Name string
	// Servers is the initial pool size (default 12).
	Servers int
	// Server configures every pool member (default appserver.Default);
	// ServerOverride, when non-nil, configures server i (zero Config
	// falls back to Server). Servers added by Events use the same pair.
	Server         appserver.Config
	ServerOverride func(i int) appserver.Config
	// Policy builds the acceptance policy of server i (default Always).
	// One agent per server, shared by every VIP selecting over the pool:
	// acceptance is a property of the worker, not of the service asking.
	Policy func(i int) agent.Policy
}

// VIPSpec declares one virtual service: its address, the pool it selects
// over, and per-connection machinery. Zero fields take the paper's
// values (the first pool, random-2 selection, demand-in-payload).
type VIPSpec struct {
	// Name labels the VIP in diagnostics (default "vip<index>").
	Name string
	// Addr is the service address (default VIPAddr(index)).
	Addr netip.Addr
	// Pool indexes Topology.Pools: the VIP selects over that pool.
	Pool int
	// Scheme builds the VIP's candidate selection over the pool (default
	// 2 uniform-random candidates, the paper's). Per VIP even on a
	// shared pool: each service hunts with its own scheme instance.
	Scheme SchemeFn
	// Fallback, when non-nil, builds the VIP's miss-fallback scheme.
	Fallback FallbackFn
	// Demand builds server i's demand function (default DefaultDemand).
	// Per VIP even on a shared pool: a shared server dispatches each
	// request to the demand model of the VIP it arrived for.
	Demand func(i int) vrouter.DemandFn
}

// Topology declares a full cluster: server pools, VIPs each selecting
// over one pool by index, N LB replicas over anycast/ECMP, and lifecycle
// Events. The zero value (one default pool, one zero VIPSpec) is the
// paper's platform behind a single LB.
type Topology struct {
	Seed uint64
	// Replicas is the number of LB replicas (default 1). With more than
	// one, every replica joins the anycast/ECMP groups of each VIP and of
	// the shared LB return address, exactly as ECMP routers would spread
	// flows across Maglev instances.
	Replicas int
	// Pools declares the server pools, which VIPSpec.Pool and server
	// Events index (default: one zero PoolSpec).
	Pools []PoolSpec
	// VIPs declares the services (default: one zero VIPSpec).
	VIPs []VIPSpec
	// Net is the simulated link (default: ideal LAN); Clients the number
	// of distinct client source addresses (default 8).
	Net     netsim.Config
	Clients int
	// Events is the lifecycle schedule: event e fires at e.Instant(Span),
	// and events at the same instant apply in slice order. Span is the run's arrival span; a schedule needs
	// Span > 0.
	Events []Event
	Span   time.Duration
	// Feedback configures the server-load telemetry plane. Disabled by
	// default: servers publish nothing and every SchemeFn gets a nil
	// view, so existing topologies run exactly as before. When
	// enabled with a positive Horizon, every live server publishes a
	// report each Interval (DES-scheduled, deterministic) until the
	// horizon; with Horizon ≤ 0 nothing is scheduled and tests drive
	// publication manually via Testbed.PublishFeedback.
	Feedback feedback.Config
}

// EventKind enumerates topology lifecycle actions.
type EventKind int

// Lifecycle actions.
const (
	// EventServerAdd grows a pool by one freshly built server
	// (scale-out): the server is attached and becomes selectable.
	EventServerAdd EventKind = iota + 1
	// EventServerDrain removes a server from candidate selection but
	// keeps it attached: established flows complete (scale-in).
	EventServerDrain
	// EventServerFail is fail-stop: the server leaves selection, detaches
	// from the LAN, and stops responding; its in-flight work is lost.
	EventServerFail
	// EventReplicaFail removes an LB replica from every anycast group;
	// surviving replicas absorb all traffic (flows re-hash onto them).
	EventReplicaFail
	// EventReplicaRecover re-attaches a failed replica — stateless, its
	// flow table cleared, as a restarted process would come back.
	EventReplicaRecover
	// EventReplicaRecoverWarm re-attaches a failed replica with a warm
	// handoff: instead of coming back stateless it imports the donor
	// replica's flow bindings (Event.From) — a surviving replica's live
	// table, or its own pre-fail snapshot aged by the downtime.
	EventReplicaRecoverWarm
)

// Event is one scheduled lifecycle action. Use the constructors.
//
// An event's time is a fraction of the run's arrival span
// (Topology.Span), which is what lets one schedule serve a whole load
// sweep: "drain a third of the pool 30% into the run" means the same
// thing at every ρ, while an absolute time only fits one arrival rate.
type Event struct {
	// Frac is the event's instant as a fraction in [0, 1] of
	// Topology.Span.
	Frac float64
	Kind EventKind
	// Pool indexes Topology.Pools (server events).
	Pool int
	// Server indexes the pool's servers, including servers added by
	// earlier events (drain/fail).
	Server int
	// Replica indexes the LB replicas (replica events).
	Replica int
	// From indexes the donor replica of a warm recover
	// (EventReplicaRecoverWarm); From == Replica means the replica
	// inherits its own pre-fail snapshot.
	From int
}

// Instant is when the event fires in a run whose arrival span is s.
func (ev Event) Instant(s time.Duration) time.Duration { return time.Duration(ev.Frac * float64(s)) }

// AddServer returns an event growing pool by one server at fraction
// frac of the span. The new server gets the next free index in the
// pool, and every VIP selecting over the pool gains it.
func AddServer(frac float64, pool int) Event {
	return Event{Frac: frac, Kind: EventServerAdd, Pool: pool}
}

// DrainServer returns an event removing server i of pool from candidate
// selection at fraction frac of the span, leaving established flows to
// complete. Every VIP selecting over the pool loses the server at once.
func DrainServer(frac float64, pool, i int) Event {
	return Event{Frac: frac, Kind: EventServerDrain, Pool: pool, Server: i}
}

// FailReplica returns an event failing LB replica r at fraction frac of
// the span.
func FailReplica(frac float64, r int) Event {
	return Event{Frac: frac, Kind: EventReplicaFail, Replica: r}
}

// RecoverReplica returns an event re-attaching LB replica r (stateless)
// at fraction frac of the span.
func RecoverReplica(frac float64, r int) Event {
	return Event{Frac: frac, Kind: EventReplicaRecover, Replica: r}
}

// RecoverReplicaWarm returns an event re-attaching LB replica r at
// fraction frac of the span with a warm handoff: the replica imports
// replica from's flow bindings instead of restarting stateless. A donor
// that is alive at the recover instant exports its table then; a dead
// donor — including from == r, a replica handing its own state forward
// across the restart — contributes the snapshot captured when it failed,
// aged by the downtime (deadlines are absolute virtual times, so
// bindings that expired while the replica was dark are not imported).
func RecoverReplicaWarm(frac float64, r, from int) Event {
	return Event{Frac: frac, Kind: EventReplicaRecoverWarm, Replica: r, From: from}
}

// FailPoolRack returns a correlated-failure schedule: the first
// ceil(fraction × servers) slots of pool all fail-stop at the same
// instant atFrac — one rack dropping off the fabric at once. Victims
// are resolved deterministically as slots 0..k-1, and the count is
// clamped to leave at least one server alive (Validate rejects
// schedules that empty a pool).
func FailPoolRack(pool, servers int, fraction, atFrac float64) []Event {
	k := int(math.Ceil(fraction * float64(servers)))
	if k < 1 {
		k = 1
	}
	if k > servers-1 {
		k = servers - 1
	}
	events := make([]Event, 0, k)
	for i := 0; i < k; i++ {
		events = append(events, Event{Frac: atFrac, Kind: EventServerFail, Pool: pool, Server: i})
	}
	return events
}

// RollingUpgradeEvents sequences a rolling LB upgrade: replica r goes
// down at fraction startFrac + r·strideFrac of the arrival span and
// comes back downFrac later, so with strideFrac > downFrac at most one
// replica is dark at a time. With warm set, each replica recovers via
// RecoverReplicaWarm from its successor (r+1 mod replicas — a live
// donor whenever the downtimes don't overlap; a single replica hands
// its own snapshot forward); otherwise recovery is stateless. All
// fractions are clamped to 1.
func RollingUpgradeEvents(replicas int, startFrac, strideFrac, downFrac float64, warm bool) []Event {
	clamp := func(f float64) float64 {
		if f > 1 {
			return 1
		}
		return f
	}
	events := make([]Event, 0, 2*replicas)
	for r := 0; r < replicas; r++ {
		failF := clamp(startFrac + float64(r)*strideFrac)
		recF := clamp(startFrac + float64(r)*strideFrac + downFrac)
		events = append(events, FailReplica(failF, r))
		if warm {
			events = append(events, RecoverReplicaWarm(recF, r, (r+1)%replicas))
		} else {
			events = append(events, RecoverReplica(recF, r))
		}
	}
	return events
}

func (t Topology) withDefaults() Topology {
	if t.Replicas <= 0 {
		t.Replicas = 1
	}
	if len(t.VIPs) == 0 {
		t.VIPs = make([]VIPSpec, 1)
	}
	if len(t.Pools) == 0 {
		t.Pools = make([]PoolSpec, 1)
	}
	pools := make([]PoolSpec, len(t.Pools))
	for p, ps := range t.Pools {
		if ps.Servers <= 0 {
			ps.Servers = 12
		}
		if ps.Server.Workers == 0 {
			ps.Server = appserver.Default()
		}
		if ps.Policy == nil {
			ps.Policy = func(int) agent.Policy { return agent.Always{} }
		}
		pools[p] = ps
	}
	t.Pools = pools
	vips := make([]VIPSpec, len(t.VIPs))
	for i, v := range t.VIPs {
		if v.Name == "" {
			v.Name = fmt.Sprintf("vip%d", i)
		}
		if !v.Addr.IsValid() {
			v.Addr = VIPAddr(i)
		}
		if v.Scheme == nil {
			v.Scheme = func(servers []netip.Addr, r *rand.Rand, _ *feedback.VIPView) selection.Scheme {
				return selection.NewRandom(servers, 2, r)
			}
		}
		if v.Demand == nil {
			v.Demand = func(int) vrouter.DemandFn { return DefaultDemand }
		}
		vips[i] = v
	}
	t.VIPs = vips
	if t.Clients <= 0 {
		t.Clients = 8
	}
	return t
}

// Validate statically checks the topology and replays its event schedule
// against the declared pools, so that a malformed declaration fails before
// the run, not mid-simulation. Build calls it (and panics on error);
// exported for callers that construct schedules programmatically and want
// the error instead of the panic.
func (t Topology) Validate() error { return t.withDefaults().validate() }

// validate statically replays the event schedule against the declared
// pools so that a malformed schedule fails at Build, not mid-simulation:
// out-of-range indices, fractions outside [0, 1], a schedule without a
// span and pools drained empty are rejected here. One class of error
// necessarily remains dynamic — a pool shrinking below a custom scheme's
// candidate count (the scheme's k is opaque to the topology); keep every
// pool at least as large as its scheme needs, or the scheme's own
// constructor will panic at the event's virtual time.
func (t Topology) validate() error {
	// Time sanity first: a fraction outside [0, 1] (NaN included) or a
	// schedule with no span to take fractions of.
	for i, ev := range t.Events {
		if !(ev.Frac >= 0 && ev.Frac <= 1) {
			return fmt.Errorf("event %d: fraction %v outside [0, 1]", i, ev.Frac)
		}
	}
	if len(t.Events) > 0 && t.Span <= 0 {
		return fmt.Errorf("a schedule of %d events needs a positive Span, got %v", len(t.Events), t.Span)
	}
	for v, spec := range t.VIPs {
		if spec.Pool < 0 || spec.Pool >= len(t.Pools) {
			return fmt.Errorf("VIP %d (%s): pool %d out of range (%d pools)", v, spec.Name, spec.Pool, len(t.Pools))
		}
	}
	// Per pool, slots counts every index ever valid (drained slots keep
	// theirs) and live the currently selectable servers.
	type poolInfo struct{ slots, live int }
	pools := make([]poolInfo, len(t.Pools))
	for p, ps := range t.Pools {
		pools[p] = poolInfo{slots: ps.Servers, live: ps.Servers}
	}
	removed := make(map[[2]int]bool)
	// Replay in fraction order (stable: same-instant events keep slice
	// order, matching how the simulator will fire them).
	order := make([]int, len(t.Events))
	for i := range order {
		order[i] = i
	}
	sort.SliceStable(order, func(a, b int) bool { return t.Events[order[a]].Frac < t.Events[order[b]].Frac })
	for _, i := range order {
		ev := t.Events[i]
		switch ev.Kind {
		case EventServerAdd, EventServerDrain, EventServerFail:
			pi := ev.Pool
			if pi < 0 || pi >= len(pools) {
				return fmt.Errorf("event %d: pool %d out of range (%d pools)", i, pi, len(pools))
			}
			p := &pools[pi]
			if ev.Kind == EventServerAdd {
				p.slots++
				p.live++
				continue
			}
			if ev.Server < 0 || ev.Server >= p.slots {
				return fmt.Errorf("event %d: server %d out of range for pool %d (≤ %d at fraction %v)",
					i, ev.Server, pi, p.slots, ev.Frac)
			}
			if key := [2]int{pi, ev.Server}; !removed[key] {
				removed[key] = true
				p.live--
				if p.live < 1 {
					return fmt.Errorf("event %d: draining server %d empties pool %d at fraction %v",
						i, ev.Server, pi, ev.Frac)
				}
			}
		case EventReplicaFail, EventReplicaRecover, EventReplicaRecoverWarm:
			if ev.Replica < 0 || ev.Replica >= t.Replicas {
				return fmt.Errorf("event %d: replica %d out of range (%d replicas)", i, ev.Replica, t.Replicas)
			}
			if ev.Kind == EventReplicaRecoverWarm && (ev.From < 0 || ev.From >= t.Replicas) {
				return fmt.Errorf("event %d: warm-recover donor %d out of range (%d replicas)", i, ev.From, t.Replicas)
			}
		default:
			return fmt.Errorf("event %d: unknown kind %d", i, ev.Kind)
		}
	}
	return nil
}

// serverSlot is one (ever-built) pool member.
type serverSlot struct {
	addr    netip.Addr
	router  *vrouter.Router
	server  *appserver.Server
	drained bool
	failed  bool
	// pub is the slot's feedback publisher (EWMA state), nil when the
	// topology's telemetry plane is disabled.
	pub *feedback.Publisher
}

// poolState is the runtime side of one PoolSpec. It owns the live
// candidate set and the ever-built slots; the VIPs selecting over it hang
// their schemes off the same addresses.
type poolState struct {
	index int // position in Topology.Pools (the address space)
	spec  PoolSpec
	// pool is the selectable servers. Schemes read its array, so no
	// element is written in place: removeFromPool copies into a fresh
	// [:i:i] array and an add appends past every published length.
	pool   []netip.Addr
	all    []*serverSlot
	vips   []*vipState    // every VIP selecting over this pool
	vipTab *addrtab.Table // vips' addresses by position, shared by the pool's routers
}

func (ps *poolState) removeFromPool(addr netip.Addr) bool {
	for i, a := range ps.pool {
		if a == addr {
			ps.pool = append(ps.pool[:i:i], ps.pool[i+1:]...)
			return true
		}
	}
	return false
}

// vipState is the runtime side of a VIPSpec: its address and the pool it
// selects over.
type vipState struct {
	spec  VIPSpec
	addr  netip.Addr
	index int // position in Topology.VIPs (the scheme-stream index)
	pool  *poolState
	// fallback is the VIP's miss-fallback scheme, shared by every replica:
	// FallbackFn takes no rng (the fallback must be a deterministic
	// function of the flow so replicas agree without shared state), so one
	// instance per VIP serves all replicas instead of one per (VIP,
	// replica). Nil when the VIP declares none.
	fallback selection.Scheme
}

// replicaState is one LB replica with its per-VIP schemes. schemes[v]
// is the scheme the replica's dispatcher holds for VIP v: every rebuild
// installs it there with SetSchemes.
type replicaState struct {
	lb      *core.LoadBalancer
	down    bool
	schemes []selection.Scheme // per VIP
	rngs    []*rand.Rand       // per VIP; persists across pool rebuilds
	// view is this replica's subscription to the telemetry plane (nil
	// when feedback is disabled) — per replica, per the feedback
	// package's contract. A down replica receives no reports and a
	// recovering one resets its view: a restarted process has no memory
	// of pre-crash load, and answers stale until servers report again.
	view *feedback.View
	// preFail is the flow snapshot captured the instant the replica
	// failed — the donor state for a warm self-recovery, and for a warm
	// recovery whose donor is itself dark at the recover instant.
	preFail []flowtable.FlowBinding
}

// Build compiles the topology into wired nodes — the low-level entry
// point for hand-built multi-LB / multi-VIP scenarios; experiments
// usually go through experiments.ClusterConfig or a Sweep's
// ClusterVariant axis instead. It panics on malformed topologies:
// cluster construction is static experiment setup, and an invalid
// declaration is a programming error in the caller.
//
// Determinism: every random stream is derived from Topology.Seed (the
// scheme of replica r over VIP v draws from stream 1 + r·len(VIPs) + v,
// so the legacy single-LB/single-VIP cluster keeps its historical
// stream), and events scheduled at Build time fire before any workload
// event scheduled later at the same instant. A Topology value therefore
// determines the run byte for byte, whatever worker count executes it.
func Build(top Topology) *Testbed {
	top = top.withDefaults()
	if err := top.validate(); err != nil {
		panic(fmt.Sprintf("testbed: invalid topology: %v", err))
	}
	top.Net.Seed = top.Seed ^ 0x6e65740a // independent net stream

	sim := des.New()
	net := netsim.New(sim, top.Net)
	tb := &Testbed{Sim: sim, Net: net}

	// Compile the pools in declaration order, then hang each VIP off the
	// pool it selects over.
	tb.pools = make([]*poolState, len(top.Pools))
	for p, ps := range top.Pools {
		tb.pools[p] = &poolState{index: p, spec: ps}
	}
	tb.vips = make([]*vipState, len(top.VIPs))
	for v, spec := range top.VIPs {
		vs := &vipState{spec: spec, addr: spec.Addr, index: v, pool: tb.pools[spec.Pool]}
		vs.pool.vips = append(vs.pool.vips, vs)
		tb.vips[v] = vs
	}

	// Count scale-out events per pool so candidate and slot slices are
	// allocated once, at final capacity.
	adds := make([]int, len(tb.pools))
	for _, ev := range top.Events {
		if ev.Kind == EventServerAdd {
			adds[ev.Pool]++
		}
	}
	total := 0
	for p, pool := range tb.pools {
		pool.vipTab = addrtab.New(len(pool.vips))
		for _, vs := range pool.vips {
			pool.vipTab.Add(vs.addr)
		}
		n := pool.spec.Servers
		pool.pool = make([]netip.Addr, n, n+adds[p])
		for i := range pool.pool {
			pool.pool[i] = SharedPoolServerAddr(p, i)
		}
		pool.all = make([]*serverSlot, 0, n+adds[p])
		total += n + adds[p]
	}

	net.Reserve(len(top.VIPs) + 1 + total + top.Clients) // VIPs, the LB, servers, clients

	// LB replicas. A single replica attaches unicast (the legacy wiring);
	// several join the per-address anycast/ECMP groups.
	anycast := top.Replicas > 1
	tb.replicas = make([]*replicaState, top.Replicas)
	tb.LBs = make([]*core.LoadBalancer, top.Replicas)
	for r := 0; r < top.Replicas; r++ {
		rs := &replicaState{
			schemes: make([]selection.Scheme, len(top.VIPs)),
			rngs:    make([]*rand.Rand, len(top.VIPs)),
		}
		if top.Feedback.Enabled {
			// One view per replica — the View is "one LB replica's
			// subscription" by the feedback package's contract. In steady
			// state every replica receives identical reports at identical
			// instants, but a down replica receives nothing and a
			// recovering one starts from scratch.
			rs.view = feedback.NewView(top.Feedback, sim.Now)
		}
		// VIP v gets dense id v in every replica, so construction is one
		// slice walk — no per-replica maps.
		list := make([]core.VIPConfig, len(top.VIPs))
		for v, vs := range tb.vips {
			stream := uint64(1) + uint64(r)*uint64(len(top.VIPs)) + uint64(v)
			selRng := rng.Split(top.Seed, stream)
			rs.rngs[v] = selRng
			rs.schemes[v] = tb.buildScheme(rs, vs)
			if vs.spec.Fallback != nil && vs.fallback == nil {
				// Built once, shared by every replica (FallbackFn is
				// deterministic and rng-free by contract).
				vs.fallback = vs.spec.Fallback(clonePool(vs.pool.pool))
			}
			list[v] = core.VIPConfig{Addr: vs.addr, Scheme: rs.schemes[v], Fallback: vs.fallback}
		}
		cfg := core.Config{Addr: LBAddr, VIPList: list}
		if anycast {
			rs.lb = core.NewDetached(sim, net, cfg)
			for _, vs := range tb.vips {
				net.AttachAnycast(rs.lb, vs.addr)
			}
			net.AttachAnycast(rs.lb, LBAddr)
		} else {
			rs.lb = core.New(sim, net, cfg)
		}
		tb.replicas[r] = rs
		tb.LBs[r] = rs.lb
	}
	tb.LB = tb.LBs[0]
	// The exported Feedback field is replica 0's view (the legacy
	// single-replica surface); FeedbackOf reaches the others.
	tb.Feedback = tb.replicas[0].view

	// Servers, pool by pool in declaration order.
	tb.Servers = make([]*appserver.Server, 0, total)
	tb.Routers = make([]*vrouter.Router, 0, total)
	for _, pool := range tb.pools {
		for i := 0; i < pool.spec.Servers; i++ {
			tb.buildServer(pool, i)
		}
	}
	tb.Gen = newGenerator(sim, net, top.Clients, tb.vips[0].addr)

	// Feedback publishing: one DES-scheduled tick for the whole cluster,
	// walking pools and slots in table order (deterministic), bounded by
	// the configured horizon — the SampleLoads idiom, so an idle
	// simulation still terminates. Failed servers stop publishing and go
	// stale naturally; the first reports land one interval in.
	if tb.Feedback != nil {
		if h := tb.Feedback.Config().Horizon; h > 0 {
			interval := tb.Feedback.Config().Interval
			var tick func()
			tick = func() {
				tb.PublishFeedback()
				if tb.Sim.Now()+interval <= h {
					tb.Sim.After(interval, tick)
				}
			}
			tb.Sim.After(interval, tick)
		}
	}

	// Lifecycle schedule. Same-instant events fire in slice order, and
	// before workload events scheduled later for the same instant.
	for _, ev := range top.Events {
		sim.At(ev.Instant(top.Span), func() { tb.apply(ev) })
	}
	return tb
}

// buildScheme constructs VIP vs's scheme for replica rs over the pool as
// it is now, on the replica's own stream for the VIP and with its own
// feedback projection (nil when the plane is off).
func (tb *Testbed) buildScheme(rs *replicaState, vs *vipState) selection.Scheme {
	var view *feedback.VIPView
	if rs.view != nil {
		view = rs.view.For(vs.addr)
	}
	n := len(vs.pool.pool)
	return vs.spec.Scheme(vs.pool.pool[:n:n], rs.rngs[vs.index], view)
}

// PublishFeedback samples every live server's scoreboard once and
// ingests one report per (VIP, server) into each live replica's view —
// the body of the periodic publishing tick, exported so staleness tests
// can drive reports at instants of their choosing. Each server samples
// once (one EWMA step per tick), every subscriber sees the same
// numbers; a down replica receives nothing, so its view goes stale
// exactly as a dead process's would. No-op when the feedback plane is
// disabled.
func (tb *Testbed) PublishFeedback() {
	if tb.Feedback == nil {
		return
	}
	now := tb.Sim.Now()
	for _, pool := range tb.pools {
		for _, slot := range pool.all {
			if slot.failed || slot.router.Down() {
				continue
			}
			srv := slot.server
			rpt := slot.pub.Sample(now, srv.BusyWorkers(), srv.TotalWorkers(), slot.router.OpenConns())
			for _, vs := range pool.vips {
				for _, rs := range tb.replicas {
					if rs.down {
						continue
					}
					rs.view.Ingest(vs.addr, slot.addr, rpt)
				}
			}
		}
	}
}

func clonePool(pool []netip.Addr) []netip.Addr {
	return append(make([]netip.Addr, 0, len(pool)), pool...)
}

// buildServer wires pool member i and registers it everywhere. A server
// of a shared pool hosts every VIP selecting over the pool: its router
// shares the pool's VIP table and prices each request with the demand
// model of the VIP it arrived for, so one physical worker pool serves
// several services with per-service cost models.
func (tb *Testbed) buildServer(pool *poolState, i int) *serverSlot {
	spec := pool.spec
	serverCfg := spec.Server
	if spec.ServerOverride != nil {
		if over := spec.ServerOverride(i); over.Workers != 0 {
			serverCfg = over
		}
	}
	name := fmt.Sprintf("server-%d", i)
	if spec.Name != "" {
		name = spec.Name + "-" + name
	}
	demand := make([]vrouter.DemandFn, len(pool.vips))
	for v, vs := range pool.vips {
		demand[v] = vs.spec.Demand(i)
	}
	srv := appserver.New(tb.Sim, name, serverCfg)
	rt := vrouter.New(tb.Sim, tb.Net, vrouter.Config{
		Addr:   SharedPoolServerAddr(pool.index, i),
		VIPs:   pool.vipTab,
		LB:     LBAddr,
		Policy: spec.Policy(i),
		Server: srv,
		Demand: demand,
	})
	tb.Servers = append(tb.Servers, srv)
	tb.Routers = append(tb.Routers, rt)
	slot := &serverSlot{addr: rt.Addr(), router: rt, server: srv}
	if tb.Feedback != nil {
		slot.pub = feedback.NewPublisher(0)
	}
	pool.all = append(pool.all, slot)
	return slot
}

// apply executes one lifecycle event at its scheduled instant.
func (tb *Testbed) apply(ev Event) {
	switch ev.Kind {
	case EventServerAdd:
		pool := tb.pools[ev.Pool]
		slot := tb.buildServer(pool, len(pool.all))
		pool.pool = append(pool.pool, slot.addr)
		tb.rebuildSchemes(pool)

	case EventServerDrain:
		pool := tb.pools[ev.Pool]
		slot := pool.all[ev.Server]
		if slot.drained || slot.failed {
			return
		}
		slot.drained = true
		pool.removeFromPool(slot.addr)
		tb.rebuildSchemes(pool)

	case EventServerFail:
		pool := tb.pools[ev.Pool]
		slot := pool.all[ev.Server]
		if slot.failed {
			return
		}
		slot.failed = true
		if !slot.drained {
			slot.drained = true
			pool.removeFromPool(slot.addr)
			tb.rebuildSchemes(pool)
		}
		tb.Net.Detach(slot.router, slot.addr)
		slot.router.SetDown(true)

	case EventReplicaFail:
		rs := tb.replicas[ev.Replica]
		if rs.down {
			return
		}
		// Capture the dying replica's flow bindings first: the warm-recover
		// donor state when this replica later hands its own snapshot
		// forward, or when another replica recovers warm while this donor
		// is still dark. Deadlines are absolute, so the snapshot ages
		// naturally while it sits here.
		rs.preFail = rs.lb.ExportFlows()
		rs.down = true
		if len(tb.replicas) > 1 {
			for _, vs := range tb.vips {
				tb.Net.DetachAnycast(rs.lb, vs.addr)
			}
			tb.Net.DetachAnycast(rs.lb, LBAddr)
		} else {
			for _, vs := range tb.vips {
				tb.Net.Detach(rs.lb, vs.addr)
			}
			tb.Net.Detach(rs.lb, LBAddr)
		}

	case EventReplicaRecover:
		rs := tb.replicas[ev.Replica]
		if !rs.down {
			return
		}
		// Stateless restart: flow state is gone.
		rs.lb.ResetFlows()
		tb.recoverReplica(rs)

	case EventReplicaRecoverWarm:
		rs := tb.replicas[ev.Replica]
		if !rs.down {
			return
		}
		// Warm handoff: restart, then import the donor's bindings. A live
		// donor exports its table right now; a dark donor (including the
		// replica itself) contributes its pre-fail snapshot, which the
		// import ages — bindings that expired during the downtime stay
		// dead.
		rs.lb.ResetFlows()
		donor := tb.replicas[ev.From]
		snap := donor.preFail
		if ev.From != ev.Replica && !donor.down {
			snap = donor.lb.ExportFlows()
		}
		rs.lb.ImportFlows(snap)
		tb.recoverReplica(rs)
	}
}

// recoverReplica re-attaches a failed replica: schemes resync to the
// pool as it is now (it may have churned while the replica was dark),
// stateful schemes are reconstructed — a restarted process has lost its
// in-flight counters — and the replica's telemetry view resets (load
// reports predate the crash; freshness returns with the next publish
// tick). Flow state is the caller's affair: the stateless path clears
// it, the warm path imports a snapshot. Fallbacks are shared across
// replicas and already track the pool: recovery reinstalls the current
// one beside each rebuilt scheme.
func (tb *Testbed) recoverReplica(rs *replicaState) {
	rs.down = false
	if rs.view != nil {
		rs.view.Reset()
	}
	for v, vs := range tb.vips {
		rs.schemes[v] = tb.buildScheme(rs, vs)
		rs.lb.SetSchemes(v, rs.schemes[v], vs.fallback)
	}
	if len(tb.replicas) > 1 {
		for _, vs := range tb.vips {
			tb.Net.AttachAnycast(rs.lb, vs.addr)
		}
		tb.Net.AttachAnycast(rs.lb, LBAddr)
	} else {
		for _, vs := range tb.vips {
			tb.Net.Attach(rs.lb, vs.addr)
		}
		tb.Net.Attach(rs.lb, LBAddr)
	}
}

// rebuildSchemes resyncs every (replica, VIP-over-this-pool) scheme (and
// the VIP's shared fallback) to the pool's current candidate set and
// installs the pair in each replica's dispatcher, down ones included —
// on a shared pool, one drain updates every service's scheme at once.
// Scheme construction consumes no random draws, so rebuilds never
// perturb the selection streams. Fallbacks rebuild once per VIP, not
// once per (VIP, replica): all replicas share the instance.
func (tb *Testbed) rebuildSchemes(pool *poolState) {
	for _, vs := range pool.vips {
		v := vs.index
		if vs.fallback != nil {
			vs.fallback = vs.spec.Fallback(clonePool(pool.pool))
		}
		for _, rs := range tb.replicas {
			// A stateful scheme is re-pointed at the new candidate set
			// (selection.Stateful.Update, draw-free by contract) so its
			// accumulated load state survives churn; plain schemes are
			// reconstructed as always.
			if st, ok := rs.schemes[v].(selection.Stateful); ok {
				st.Update(clonePool(pool.pool))
			} else {
				rs.schemes[v] = tb.buildScheme(rs, vs)
			}
			rs.lb.SetSchemes(v, rs.schemes[v], vs.fallback)
		}
	}
}

// VIPAddrOf returns the address of VIP v.
func (tb *Testbed) VIPAddrOf(v int) netip.Addr { return tb.vips[v].addr }

// FeedbackOf returns replica r's telemetry view (nil when the plane is
// disabled). Testbed.Feedback is shorthand for FeedbackOf(0).
func (tb *Testbed) FeedbackOf(r int) *feedback.View { return tb.replicas[r].view }
