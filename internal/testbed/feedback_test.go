package testbed

import (
	"math/rand/v2"
	"net/netip"
	"testing"
	"time"

	"srlb/internal/feedback"
	"srlb/internal/selection"
)

// wllScheme is the load-aware constructor the experiments use:
// a nil view (the plane off) must reach the scheme as a nil LoadView,
// not as a typed nil.
func wllScheme(servers []netip.Addr, r *rand.Rand, view *feedback.VIPView) selection.Scheme {
	var lv selection.LoadView
	if view != nil {
		lv = view
	}
	return selection.NewWeightedLeastLoad(servers, 2, r, lv)
}

// Staleness end to end: a server that stops publishing (here: fails)
// goes stale in the shared view one TTL after its last report, while the
// survivors stay fresh through the periodic ticks — so every load-aware
// scheme demotes to its oblivious fallback exactly for the silent
// server. A later fresh report recovers it.
func TestFeedbackStalenessAndRecovery(t *testing.T) {
	const servers = 3
	failAt := 20 * time.Millisecond
	tb := Build(Topology{
		Seed:  41,
		Pools: []PoolSpec{{Servers: servers}},
		VIPs:  []VIPSpec{{Scheme: wllScheme}},
		// Horizon 0: no automatic ticker — the test drives publication.
		Feedback: feedback.Config{Enabled: true},
		Events:   []Event{failServer(failAt, 0, 1)},
	})
	if tb.Feedback == nil {
		t.Fatal("feedback plane not built")
	}
	cfg := tb.Feedback.Config()
	vip := tb.VIPAddrOf(0)
	view := tb.Feedback.For(vip)
	victim := ServerAddr(1)

	type probe struct {
		at     time.Duration
		fresh  map[netip.Addr]bool
		sample bool
	}
	var got []probe
	check := func(at time.Duration, sample bool) {
		tb.Sim.At(at, func() {
			if sample {
				tb.PublishFeedback()
			}
			p := probe{at: at, fresh: make(map[netip.Addr]bool, servers), sample: sample}
			for i := 0; i < servers; i++ {
				a := ServerAddr(i)
				_, fresh := view.ServerLoad(a)
				p.fresh[a] = fresh
			}
			got = append(got, p)
		})
	}

	// t=10ms: everyone publishes. t=10ms+TTL+1ms: the victim has failed
	// (the declared Event) and published nothing since, survivors
	// republished — the victim alone must be stale. A later fresh report
	// (direct ingest: failed servers can't publish) recovers it.
	check(10*time.Millisecond, true)
	staleAt := 10*time.Millisecond + 3*cfg.Interval + time.Millisecond // the view's TTL
	check(staleAt-2*time.Millisecond, true)                            // survivors refresh; victim silent
	check(staleAt, false)
	recoverAt := staleAt + time.Millisecond
	tb.Sim.At(recoverAt, func() {
		tb.Feedback.Ingest(vip, victim, feedback.Report{Util: 0.1, At: tb.Sim.Now()})
	})
	check(recoverAt+time.Millisecond, false)
	tb.Sim.Run()

	if len(got) != 4 {
		t.Fatalf("%d probes ran, want 4", len(got))
	}
	for i := 0; i < servers; i++ {
		if !got[0].fresh[ServerAddr(i)] {
			t.Fatalf("server %d not fresh right after the first publish", i)
		}
	}
	for i := 0; i < servers; i++ {
		a := ServerAddr(i)
		wantFresh := a != victim
		if got[2].fresh[a] != wantFresh {
			t.Fatalf("at TTL expiry: server %d fresh=%v, want %v (victim is silent)",
				i, got[2].fresh[a], wantFresh)
		}
	}
	if !got[3].fresh[victim] {
		t.Fatal("fresh report did not recover the stale server")
	}
}

// The periodic publishing ticker: with a positive horizon, reports land
// every interval without any workload, the simulation still terminates,
// and ticks stop at the horizon — plus every replica owns its own view
// and each receives every tick's reports.
func TestFeedbackPublishingTicker(t *testing.T) {
	horizon := time.Second
	tb := Build(Topology{
		Seed:     43,
		Replicas: 2,
		Pools:    []PoolSpec{{Servers: 2}},
		VIPs:     []VIPSpec{{Scheme: wllScheme}},
		Feedback: feedback.Config{Enabled: true, Interval: 100 * time.Millisecond, Horizon: horizon},
	})
	tb.Sim.Run()
	if end := tb.Sim.Now(); end > horizon {
		t.Fatalf("ticker ran past its horizon: sim ended at %v", end)
	}
	// 10 ticks × 2 servers × 1 VIP, delivered to each replica's view.
	if got := tb.Feedback.Stats().Ingests; got != 20 {
		t.Fatalf("Ingests = %d, want 20 (10 bounded ticks over 2 servers)", got)
	}
	// Per-replica views: distinct subscriptions, identical contents.
	if tb.FeedbackOf(0) != tb.Feedback {
		t.Fatal("Testbed.Feedback is not replica 0's view")
	}
	if tb.FeedbackOf(1) == tb.FeedbackOf(0) {
		t.Fatal("replicas share one view; each must own its subscription")
	}
	if got := tb.FeedbackOf(1).Stats().Ingests; got != 20 {
		t.Fatalf("replica 1 Ingests = %d, want 20 (same reports as replica 0)", got)
	}
	vip := tb.VIPAddrOf(0)
	for r := 0; r < 2; r++ {
		view := tb.FeedbackOf(r).For(vip)
		for i := 0; i < 2; i++ {
			if _, ok := view.Report(ServerAddr(i)); !ok {
				t.Fatalf("server %d never reported to replica %d through the ticker", i, r)
			}
		}
	}
}

// A recovering replica comes back with no telemetry: its view resets,
// so it answers stale for every server until the next publish tick —
// even though its pre-crash reports would still be within TTL — while
// the surviving replica stays fresh throughout. Warm handoff transfers
// flows, not telemetry, so both recover kinds pin the same staleness.
func TestFeedbackStalenessAfterReplicaRecover(t *testing.T) {
	recovers := []struct {
		name string
		ev   Event
	}{
		{"stateless", RecoverReplica(50*time.Millisecond, 1)},
		{"warm", RecoverReplicaWarm(50*time.Millisecond, 1, 0)},
	}
	for _, rec := range recovers {
		t.Run(rec.name, func(t *testing.T) {
			const servers = 2
			tb := Build(Topology{
				Seed:     53,
				Replicas: 2,
				Pools:    []PoolSpec{{Servers: servers}},
				VIPs:     []VIPSpec{{Scheme: wllScheme}},
				// Horizon 0: no automatic ticker — the test publishes.
				Feedback: feedback.Config{Enabled: true},
				Events:   []Event{FailReplica(30*time.Millisecond, 1), rec.ev},
			})
			vip := tb.VIPAddrOf(0)
			freshCount := func(r int) int {
				n := 0
				view := tb.FeedbackOf(r).For(vip)
				for i := 0; i < servers; i++ {
					if _, fresh := view.ServerLoad(ServerAddr(i)); fresh {
						n++
					}
				}
				return n
			}
			publish := func(at time.Duration) { tb.Sim.At(at, tb.PublishFeedback) }
			probe := func(at time.Duration, want0, want1 int, what string) {
				tb.Sim.At(at, func() {
					if got := freshCount(0); got != want0 {
						t.Errorf("%s: replica 0 has %d fresh servers, want %d", what, got, want0)
					}
					if got := freshCount(1); got != want1 {
						t.Errorf("%s: replica 1 has %d fresh servers, want %d", what, got, want1)
					}
				})
			}
			publish(20 * time.Millisecond)
			probe(25*time.Millisecond, servers, servers, "before the kill")
			publish(40 * time.Millisecond) // replica 1 down: replica 0 only
			// The recover at 50ms resets replica 1's view. Its 20ms reports
			// are still well inside the default 300ms TTL — the reset, not
			// the TTL, is what makes the restarted replica stale.
			probe(55*time.Millisecond, servers, 0, "after recover, before any publish")
			publish(60 * time.Millisecond)
			probe(61*time.Millisecond, servers, servers, "after the first post-recover publish")
			tb.Sim.Run()
			// Replica 0 received all three publishes; replica 1 missed the
			// one during its downtime.
			if got := tb.FeedbackOf(0).Stats().Ingests; got != 3*servers {
				t.Fatalf("replica 0 Ingests = %d, want %d", got, 3*servers)
			}
			if got := tb.FeedbackOf(1).Stats().Ingests; got != 2*servers {
				t.Fatalf("replica 1 Ingests = %d, want %d", got, 2*servers)
			}
		})
	}
}

// Feedback disabled is the zero-cost default: no view is built, and
// every scheme constructor gets a nil one, so a load-aware scheme runs
// its load-oblivious form.
func TestFeedbackDisabledUsesPlainScheme(t *testing.T) {
	built := 0
	tb := Build(Topology{
		Seed:  47,
		Pools: []PoolSpec{{Servers: 2}},
		VIPs: []VIPSpec{{Scheme: func(s []netip.Addr, r *rand.Rand, view *feedback.VIPView) selection.Scheme {
			built++
			if view != nil {
				t.Fatal("scheme handed a feedback view with the plane disabled")
			}
			return wllScheme(s, r, view)
		}}},
	})
	if tb.Feedback != nil {
		t.Fatal("view built with feedback disabled")
	}
	if built != 1 {
		t.Fatalf("scheme built %d times, want 1", built)
	}
}
