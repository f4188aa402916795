package testbed

import (
	"math/rand/v2"
	"net/netip"
	"testing"
	"time"

	"srlb/internal/feedback"
	"srlb/internal/packet"
	"srlb/internal/rng"
	"srlb/internal/selection"
)

// spyLedger tracks every scheme instance a topology builds, keyed by the
// per-(replica, VIP) rng stream the testbed hands the constructor: that
// stream persists across rebuilds, so the newest instance built on it is
// the one the LB must be calling.
type spyLedger struct {
	cur   map[*rand.Rand]*statefulSpy
	all   []*statefulSpy
	stale int // calls that reached a replaced instance
}

// statefulSpy is a Stateful + Resteerer scheme: random-2 placement that
// counts the lifecycle calls it receives and never moves a flow.
type statefulSpy struct {
	ledger   *spyLedger
	r        *rand.Rand
	inner    *selection.Random
	updates  int
	observes int
	resteers int
}

func (l *spyLedger) build(servers []netip.Addr, r *rand.Rand, _ *feedback.VIPView) selection.Scheme {
	s := &statefulSpy{ledger: l, r: r, inner: selection.NewRandom(servers, 2, r)}
	l.cur[r] = s
	l.all = append(l.all, s)
	return s
}

func (s *statefulSpy) check() {
	if s.ledger.cur[s.r] != s {
		s.ledger.stale++
	}
}

func (s *statefulSpy) Pick(flow packet.FlowKey) []netip.Addr {
	s.check()
	return s.inner.Pick(flow)
}

func (s *statefulSpy) Name() string { return "stateful-spy" }

func (s *statefulSpy) Observe(netip.Addr, int) {
	s.check()
	s.observes++
}

func (s *statefulSpy) Update(servers []netip.Addr) {
	s.check()
	s.updates++
	s.inner = selection.NewRandom(servers, 2, s.r)
}

func (s *statefulSpy) Resteer(_ time.Duration, _ packet.FlowKey, _ time.Duration, current netip.Addr) (netip.Addr, bool) {
	s.check()
	s.resteers++
	return current, false
}

// plainSpy has an Observe method but no Update, so it is not
// selection.Stateful: the LB must never call its Observe.
type plainSpy struct {
	selection.Scheme
	observes *int
}

func (p plainSpy) Observe(netip.Addr, int) { *p.observes++ }

var (
	_ selection.Stateful  = (*statefulSpy)(nil)
	_ selection.Resteerer = (*statefulSpy)(nil)
)

// A stateful scheme lives through pool churn as one instance per
// (replica, VIP), re-pointed by Update — on a down replica too — and is
// rebuilt only when its replica recovers; the LB's Observe/Resteer calls
// follow the current instance, never a replaced one, and never reach a
// plain scheme. The run's results digest pins the whole lifecycle path.
func TestSchemeLifecycleAcrossChurnAndRecovery(t *testing.T) {
	ledger := &spyLedger{cur: map[*rand.Rand]*statefulSpy{}}
	plainObserves := 0
	tb := Build(Topology{
		Seed:     67,
		Replicas: 2,
		Pools: []PoolSpec{
			{Servers: 4},
			{Servers: 3},
		},
		VIPs: []VIPSpec{
			{Scheme: ledger.build, Fallback: testFallback},
			{Pool: 1, Fallback: testFallback, Scheme: func(s []netip.Addr, r *rand.Rand, _ *feedback.VIPView) selection.Scheme {
				return plainSpy{Scheme: selection.NewRandom(s, 2, r), observes: &plainObserves}
			}},
		},
		Events: []Event{
			AddServer(80*time.Millisecond, 0),
			DrainServer(200*time.Millisecond, 0, 1),
			FailReplica(300*time.Millisecond, 1),
			failServer(380*time.Millisecond, 0, 2),
			RecoverReplica(520*time.Millisecond, 1),
			DrainServer(600*time.Millisecond, 0, 0),
		},
	})
	// Indexed by ID: DrainPending reports what is still pending at the
	// end in map order.
	results := make([]Result, 800)
	recorded := 0
	tb.Gen.OnResult = func(res Result) {
		results[res.ID] = res
		recorded++
	}
	r := rng.Split(67, 0xd1ce)
	p := rng.NewPoisson(rng.Split(67, 0xa17), 1000, 0)
	for i := 0; i < 800; i++ {
		at := p.Next()
		q := Query{ID: uint64(i), Demand: rng.Exp(r, 10*time.Millisecond)}
		if i%3 == 1 {
			q.VIP = tb.VIPAddrOf(1)
		}
		tb.Sim.At(at, func() { tb.Gen.Launch(q) })
	}
	tb.Sim.Run()
	tb.Gen.DrainPending()

	// Build order: replica 0, replica 1, then replica 1's recovery.
	if len(ledger.all) != 3 {
		t.Fatalf("built %d stateful instances, want 3 (one per replica, one on recovery)", len(ledger.all))
	}
	a0, a1, b1 := ledger.all[0], ledger.all[1], ledger.all[2]
	if a1.r != b1.r || a0.r == a1.r {
		t.Fatal("recovery rebuilt on another replica's stream")
	}
	// Replica 0 sees all four churn events; replica 1's first instance
	// sees three (the fail while it was down included), its rebuild one.
	if a0.updates != 4 || a1.updates != 3 || b1.updates != 1 {
		t.Fatalf("updates = %d/%d/%d, want 4/3/1", a0.updates, a1.updates, b1.updates)
	}
	if ledger.stale != 0 {
		t.Fatalf("%d calls reached a replaced instance", ledger.stale)
	}
	for i, s := range ledger.all {
		if s.observes == 0 || s.resteers == 0 {
			t.Fatalf("instance %d saw %d observes and %d resteers, want both > 0", i, s.observes, s.resteers)
		}
	}
	if plainObserves != 0 {
		t.Fatalf("the plain scheme saw %d Observe calls", plainObserves)
	}
	if tb.LBs[0].Counts.Get("miss_fallback")+tb.LBs[1].Counts.Get("miss_fallback") == 0 {
		t.Fatal("the replica failure never exercised the miss-fallback")
	}
	if recorded != 800 {
		t.Fatalf("%d results, want 800", recorded)
	}
	const want = uint64(0xca11219aec66a10e)
	if got := resultsDigest(results); got != want {
		t.Fatalf("lifecycle digest = %#x, want %#x", got, want)
	}
}
