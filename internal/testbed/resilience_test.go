package testbed

import (
	"math"
	"math/rand/v2"
	"net/netip"
	"reflect"
	"testing"
	"time"

	"srlb/internal/feedback"
	"srlb/internal/flowtable"
	"srlb/internal/packet"
	"srlb/internal/selection"
)

func resilienceTopology(events []Event, flows flowtable.Config) Topology {
	return Topology{
		Seed:     59,
		Replicas: 2,
		Flows:    flows,
		Pools:    []PoolSpec{{Servers: 3}},
		VIPs: []VIPSpec{{Scheme: func(s []netip.Addr, r *rand.Rand, _ *feedback.VIPView) selection.Scheme {
			return selection.NewRandom(s, 2, r)
		}}},
		Events: events,
	}
}

func testFlow(i int) packet.FlowKey {
	return packet.FlowKey{Src: ClientAddr(i), Dst: VIPAddr(0), SrcPort: uint16(40000 + i), DstPort: 80}
}

// Warm recovery from a surviving donor: the recovering replica inherits
// the donor's live table as it stands at the recover instant — bindings
// learned after the crash included.
func TestRecoverReplicaWarmInheritsSurvivorFlows(t *testing.T) {
	tb := Build(resilienceTopology([]Event{
		FailReplica(10*time.Millisecond, 0),
		RecoverReplicaWarm(30*time.Millisecond, 0, 1),
	}, flowtable.Config{}))
	// The survivor learns flows both before the kill and during the
	// downtime; the recovering replica must inherit all of them.
	tb.Sim.At(5*time.Millisecond, func() {
		tb.LBs[1].SeedFlow(testFlow(0), ServerAddr(0))
	})
	tb.Sim.At(20*time.Millisecond, func() {
		tb.LBs[1].SeedFlow(testFlow(1), ServerAddr(1))
	})
	tb.Sim.Run()
	if got := tb.LBs[0].FlowCount(); got != 2 {
		t.Fatalf("recovered replica holds %d flows, want 2 (the survivor's table)", got)
	}
	if got := tb.LBs[1].FlowCount(); got != 2 {
		t.Fatalf("donor lost flows during the handoff: %d, want 2", got)
	}
}

// Warm recovery from the replica's own pre-fail snapshot (from == r),
// aged by the downtime: bindings that expired while the replica was
// dark stay dead, the rest come back.
func TestRecoverReplicaWarmSelfSnapshotAges(t *testing.T) {
	tb := Build(resilienceTopology([]Event{
		FailReplica(10*time.Millisecond, 0),
		RecoverReplicaWarm(30*time.Millisecond, 0, 0),
	}, flowtable.Config{IdleTTL: 15 * time.Millisecond}))
	tb.Sim.At(2*time.Millisecond, func() {
		// Deadline 17ms — mid-downtime; must not come back at 30ms.
		tb.LBs[0].SeedFlow(testFlow(0), ServerAddr(0))
	})
	tb.Sim.At(9*time.Millisecond, func() {
		// Deadline 24ms — expires later, still before the recover.
		tb.LBs[0].SeedFlow(testFlow(1), ServerAddr(1))
	})
	tb.Sim.Run()
	if got := tb.LBs[0].FlowCount(); got != 0 {
		t.Fatalf("replica resurrected %d flows that expired during its downtime", got)
	}

	// Same schedule, longer TTL: the pre-fail bindings survive the
	// 20ms downtime and come back.
	tb = Build(resilienceTopology([]Event{
		FailReplica(10*time.Millisecond, 0),
		RecoverReplicaWarm(30*time.Millisecond, 0, 0),
	}, flowtable.Config{IdleTTL: 50 * time.Millisecond}))
	tb.Sim.At(2*time.Millisecond, func() {
		tb.LBs[0].SeedFlow(testFlow(0), ServerAddr(0))
		tb.LBs[0].SeedFlow(testFlow(1), ServerAddr(1))
	})
	tb.Sim.Run()
	if got := tb.LBs[0].FlowCount(); got != 2 {
		t.Fatalf("replica recovered %d of its own flows, want 2", got)
	}
}

// A warm recover whose donor is itself dark at the recover instant
// falls back to the donor's pre-fail snapshot.
func TestRecoverReplicaWarmDeadDonorUsesPreFailSnapshot(t *testing.T) {
	tb := Build(resilienceTopology([]Event{
		FailReplica(10*time.Millisecond, 1), // donor dies second... first in time
		FailReplica(15*time.Millisecond, 0),
		RecoverReplicaWarm(30*time.Millisecond, 0, 1),
	}, flowtable.Config{}))
	tb.Sim.At(5*time.Millisecond, func() {
		tb.LBs[1].SeedFlow(testFlow(0), ServerAddr(0))
	})
	tb.Sim.Run()
	if got := tb.LBs[0].FlowCount(); got != 1 {
		t.Fatalf("recovered replica holds %d flows, want the dead donor's pre-fail 1", got)
	}
}

func TestFailPoolRackDeterministicAndClamped(t *testing.T) {
	events := FailPoolRack(0, 12, 0.25, 0.4)
	if len(events) != 3 {
		t.Fatalf("0.25 of 12 servers = %d events, want 3", len(events))
	}
	for i, ev := range events {
		want := Event{Kind: EventServerFail, Server: i, Frac: 0.4, Relative: true}
		if !reflect.DeepEqual(ev, want) {
			t.Fatalf("event %d = %+v, want %+v", i, ev, want)
		}
	}
	// Same inputs, same schedule — victims are slots, not samples.
	if !reflect.DeepEqual(events, FailPoolRack(0, 12, 0.25, 0.4)) {
		t.Fatal("FailPoolRack is not deterministic")
	}
	// The clamp never empties the pool, and never goes below one victim.
	if got := len(FailPoolRack(0, 4, 1.0, 0.5)); got != 3 {
		t.Fatalf("full-rack loss on 4 servers fails %d, want the clamped 3", got)
	}
	if got := len(FailPoolRack(0, 12, 0.0, 0.5)); got != 1 {
		t.Fatalf("zero-fraction rack fails %d servers, want the floor 1", got)
	}
	if pool := FailPoolRack(2, 8, 0.5, 0.2)[0].Pool; pool != 2 {
		t.Fatalf("pool-2 rack targets pool %d", pool)
	}
	// The schedule validates and applies: after the rack event fires,
	// the pool is down to the survivors.
	top := resilienceTopology(ResolveEvents(FailPoolRack(0, 3, 1.0/3.0, 0.5), 20*time.Millisecond), flowtable.Config{})
	if err := top.Validate(); err != nil {
		t.Fatalf("rack schedule rejected: %v", err)
	}
	tb := Build(top)
	tb.Sim.Run()
	down := 0
	for _, rt := range tb.Routers {
		if rt.Down() {
			down++
		}
	}
	if got := len(tb.Routers) - down; got != 2 {
		t.Fatalf("pool has %d live servers after the rack loss, want 2", got)
	}
}

func TestRollingUpgradeEventsSequence(t *testing.T) {
	warm := RollingUpgradeEvents(2, 0.3, 0.3, 0.15, true)
	if len(warm) != 4 {
		t.Fatalf("%d events for 2 replicas, want 4", len(warm))
	}
	wantKinds := []EventKind{EventReplicaFail, EventReplicaRecoverWarm, EventReplicaFail, EventReplicaRecoverWarm}
	wantFracs := []float64{0.3, 0.45, 0.6, 0.75}
	for i, ev := range warm {
		if ev.Kind != wantKinds[i] || math.Abs(ev.Frac-wantFracs[i]) > 1e-9 || !ev.Relative {
			t.Fatalf("event %d = %+v, want kind %d at frac %v", i, ev, wantKinds[i], wantFracs[i])
		}
	}
	// Warm recovery names the successor as donor; a lone replica hands
	// its own snapshot forward.
	if warm[1].From != 1 || warm[3].From != 0 {
		t.Fatalf("donors = %d, %d; want the successor ring 1, 0", warm[1].From, warm[3].From)
	}
	if solo := RollingUpgradeEvents(1, 0.3, 0.3, 0.15, true); solo[1].From != 0 {
		t.Fatalf("single-replica warm upgrade donor = %d, want self", solo[1].From)
	}
	// The stateless form uses plain recovers, and late fractions clamp.
	cold := RollingUpgradeEvents(3, 0.8, 0.3, 0.15, false)
	for _, ev := range cold {
		if ev.Kind == EventReplicaRecoverWarm {
			t.Fatal("stateless rolling upgrade emitted a warm recover")
		}
		if ev.Frac > 1 {
			t.Fatalf("unclamped fraction %v", ev.Frac)
		}
	}
	// Both shapes pass static validation on a matching topology.
	for _, events := range [][]Event{warm, cold} {
		top := resilienceTopology(events, flowtable.Config{})
		top.Replicas = 3
		if err := top.Validate(); err != nil {
			t.Fatalf("rolling-upgrade schedule rejected: %v", err)
		}
	}
}

// Validation: a warm recover names a donor that must exist.
func TestWarmRecoverValidation(t *testing.T) {
	top := resilienceTopology([]Event{
		FailReplica(10*time.Millisecond, 0),
		RecoverReplicaWarm(20*time.Millisecond, 0, 5),
	}, flowtable.Config{})
	if err := top.Validate(); err == nil {
		t.Fatal("out-of-range warm-recover donor accepted")
	}
	top = resilienceTopology([]Event{
		RecoverReplicaWarm(20*time.Millisecond, 5, 0),
	}, flowtable.Config{})
	if err := top.Validate(); err == nil {
		t.Fatal("out-of-range warm-recover replica accepted")
	}
}
