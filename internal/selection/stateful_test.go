package selection

import (
	"net/netip"
	"testing"
	"time"

	"srlb/internal/rng"
)

// loadsView builds a fuzzView where every listed server is fresh at the
// given load.
func loadsView(srv []netip.Addr, loads ...float64) *fuzzView {
	v := &fuzzView{
		loads: make(map[netip.Addr]float64, len(srv)),
		fresh: make(map[netip.Addr]bool, len(srv)),
	}
	for i, a := range srv {
		v.loads[a] = loads[i]
		v.fresh[a] = true
	}
	return v
}

// With every report fresh, WeightedLeastLoad must hand Service Hunting
// a least-loaded-first candidate list: the first candidate's score never
// exceeds the second's.
func TestWeightedLeastLoadRanksByLoad(t *testing.T) {
	srv := servers(6)
	view := loadsView(srv, 0.9, 0.1, 0.5, 0.3, 0.7, 0.0)
	w := NewWeightedLeastLoad(srv, 2, rng.New(21), view)
	if w.Name() != "wleastload2" {
		t.Fatalf("name = %q", w.Name())
	}
	for i := 0; i < 2000; i++ {
		picks := w.Pick(flow(i))
		if len(picks) != 2 || picks[0] == picks[1] {
			t.Fatalf("bad picks %v", picks)
		}
		if view.loads[picks[0]] > view.loads[picks[1]] {
			t.Fatalf("picks %v not least-loaded-first (%.2f > %.2f)",
				picks, view.loads[picks[0]], view.loads[picks[1]])
		}
	}
}

// Staleness degrades the scheme to exactly the paper's random2: the
// candidate sets always match a twin Random scheme's draw, and any pick
// touching a stale server keeps the oblivious order bit for bit.
func TestWeightedLeastLoadStaleDegradesToRandom(t *testing.T) {
	srv := servers(6)
	stale := srv[2]
	view := loadsView(srv, 0.9, 0.1, 0.0, 0.3, 0.7, 0.5)
	view.fresh[stale] = false // the tempting "I'm idle" report has expired
	w := NewWeightedLeastLoad(srv, 2, rng.New(22), view)
	ref := NewRandom(srv, 2, rng.New(22))
	reordered := 0
	for i := 0; i < 4000; i++ {
		p, q := w.Pick(flow(i)), ref.Pick(flow(i))
		if !(p[0] == q[0] && p[1] == q[1] || p[0] == q[1] && p[1] == q[0]) {
			t.Fatalf("candidate sets diverged: %v vs %v", p, q)
		}
		if p[0] == stale || p[1] == stale {
			// Stale candidate: the original random order must survive —
			// load 0.0 on a stale report must not attract the flow.
			if p[0] != q[0] {
				t.Fatalf("stale candidate reordered: %v vs oblivious %v", p, q)
			}
		} else if p[0] != q[0] {
			reordered++
		}
	}
	if reordered == 0 {
		t.Fatal("no fresh pair was ever reordered — load awareness vacuous")
	}
	// A nil view is pure random2 on every pick.
	w2 := NewWeightedLeastLoad(srv, 2, rng.New(23), nil)
	ref2 := NewRandom(srv, 2, rng.New(23))
	for i := 0; i < 1000; i++ {
		p, q := w2.Pick(flow(i)), ref2.Pick(flow(i))
		if p[0] != q[0] || p[1] != q[1] {
			t.Fatalf("nil-view pick %v diverged from random %v", p, q)
		}
	}
}

// Observe's in-flight tracking biases the ranking between reports, and
// Update drops state for departed servers (pool churn) while keeping it
// for survivors.
func TestWeightedLeastLoadObserveAndUpdate(t *testing.T) {
	srv := servers(3)
	view := loadsView(srv, 0.5, 0.5, 0.5) // equal reported load everywhere
	w := NewWeightedLeastLoad(srv, 2, rng.New(24), view)
	biased := srv[0]
	w.Observe(biased, +40) // 40 unreported placements: score +2.0
	for i := 0; i < 1000; i++ {
		if p := w.Pick(flow(i)); p[0] == biased {
			t.Fatalf("server with 40 in-flight placements still ranked first: %v", p)
		}
	}
	// Update to the surviving set keeps the bias…
	w.Update(srv)
	for i := 0; i < 1000; i++ {
		if p := w.Pick(flow(i)); p[0] == biased {
			t.Fatalf("Update(survivors) lost in-flight state: %v", p)
		}
	}
	// …but dropping the server and re-adding it forgets the counts, and
	// clamping means Observe(-1) on a clean server stays at zero.
	w.Update(srv[1:])
	w.Update(srv)
	w.Observe(srv[1], -1)
	seenFirst := false
	for i := 0; i < 1000; i++ {
		if p := w.Pick(flow(i)); p[0] == biased {
			seenFirst = true
			break
		}
	}
	if !seenFirst {
		t.Fatal("departed-then-readded server still carries stale in-flight bias")
	}
}

// Flowlet staleness vetoes: at a genuine boundary the flow moves only
// when the current server and every candidate report fresh — a stale
// report anywhere (or no view at all) keeps the flow where it is.
func TestFlowletStaleVetoesMove(t *testing.T) {
	srv := servers(2)
	hot, cold := srv[0], srv[1]
	view := loadsView(srv, 0.9, 0.1)
	fl := NewFlowlet(srv, 50*time.Millisecond, rng.New(25), view)
	boundary := 100 * time.Millisecond

	// All fresh: the flow on the hot server moves to the cold one.
	next, moved := fl.Resteer(time.Second, flow(0), boundary, hot)
	if !moved || next != cold {
		t.Fatalf("fresh reports: Resteer = (%v, %v), want move to %v", next, moved, cold)
	}
	// Stale candidate: its tempting 0.1 must be ignored.
	view.fresh[cold] = false
	if next, moved := fl.Resteer(2*time.Second, flow(0), boundary, hot); moved || next != hot {
		t.Fatalf("stale candidate: Resteer = (%v, %v), want stay", next, moved)
	}

	// Stale current: no trustworthy comparison point, stay.
	view.fresh[cold] = true
	view.fresh[hot] = false
	if next, moved := fl.Resteer(3*time.Second, flow(0), boundary, hot); moved || next != hot {
		t.Fatalf("stale current: Resteer = (%v, %v), want stay", next, moved)
	}

	// Fresh again: recovery re-enables the move.
	view.fresh[hot] = true
	if _, moved := fl.Resteer(4*time.Second, flow(0), boundary, hot); !moved {
		t.Fatal("fresh recovery did not re-enable re-steering")
	}

	// No view: flows never move.
	fl2 := NewFlowlet(srv, 50*time.Millisecond, rng.New(26), nil)
	if next, moved := fl2.Resteer(time.Second, flow(0), boundary, hot); moved || next != hot {
		t.Fatalf("nil view: Resteer = (%v, %v), want stay", next, moved)
	}
}

// The boundary predicate is strictly greater-than, and an intra-flowlet
// packet never moves its flow, however tempting the loads.
func TestFlowletBoundaryStrict(t *testing.T) {
	srv := servers(2)
	fl := NewFlowlet(srv, 50*time.Millisecond, rng.New(27), loadsView(srv, 0.9, 0.1))
	if fl.Gap() != 50*time.Millisecond {
		t.Fatalf("gap = %v", fl.Gap())
	}
	if fl.Boundary(50 * time.Millisecond) {
		t.Fatal("idle == gap must not open a flowlet")
	}
	if !fl.Boundary(50*time.Millisecond + time.Nanosecond) {
		t.Fatal("idle just past gap must open a flowlet")
	}
	if next, moved := fl.Resteer(time.Second, flow(0), 50*time.Millisecond, srv[0]); moved || next != srv[0] {
		t.Fatalf("intra-flowlet Resteer = (%v, %v), want no-op", next, moved)
	}
	if NewFlowlet(srv, 0, rng.New(28), nil).Gap() != DefaultFlowletGap {
		t.Fatal("gap ≤ 0 must take DefaultFlowletGap")
	}
}
