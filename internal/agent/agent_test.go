package agent

import (
	"testing"

	"srlb/internal/appserver"
)

// fakeBoard is a settable scoreboard.
type fakeBoard struct {
	busy, total int
}

func (f *fakeBoard) BusyWorkers() int  { return f.busy }
func (f *fakeBoard) TotalWorkers() int { return f.total }

var _ appserver.Scoreboard = (*fakeBoard)(nil)

func TestStaticThreshold(t *testing.T) {
	p := NewStatic(4)
	sb := &fakeBoard{total: 32}
	for busy := 0; busy < 10; busy++ {
		sb.busy = busy
		got := p.Accept(sb)
		want := busy < 4
		if got != want {
			t.Fatalf("busy=%d: accept=%v, want %v", busy, got, want)
		}
	}
}

func TestStaticExtremes(t *testing.T) {
	sb := &fakeBoard{total: 32}
	zero := NewStatic(0)
	full := NewStatic(33) // n+1
	for busy := 0; busy <= 32; busy++ {
		sb.busy = busy
		if zero.Accept(sb) {
			t.Fatal("SR0 must refuse everything")
		}
		if !full.Accept(sb) {
			t.Fatal("SR(n+1) must accept everything")
		}
	}
}

func TestStaticName(t *testing.T) {
	if NewStatic(4).Name() != "SR4" || NewStatic(16).Name() != "SR16" {
		t.Fatal("static names wrong")
	}
}

func TestDynamicDefaults(t *testing.T) {
	p := NewDynamic(0)
	if p.C() != 1 {
		t.Fatalf("initial c = %d, want 1", p.C())
	}
	if p.Name() != "SRdyn" {
		t.Fatalf("name = %q", p.Name())
	}
}

func TestDynamicRaisesCUnderRefusals(t *testing.T) {
	// Busy always ≥ c → all offers refused → ratio 0 < 0.4 → c++ per window.
	p := NewDynamic(50)
	sb := &fakeBoard{busy: 32, total: 32}
	for i := 0; i < 50*5; i++ {
		p.Accept(sb)
	}
	if p.C() < 5 {
		t.Fatalf("c = %d after 5 windows of refusals, want ≥5", p.C())
	}
}

func TestDynamicCapsAtTotalWorkers(t *testing.T) {
	p := NewDynamic(10)
	sb := &fakeBoard{busy: 4, total: 4}
	for i := 0; i < 10*100; i++ {
		p.Accept(sb)
	}
	if p.C() > 4 {
		t.Fatalf("c = %d, must not exceed n=4", p.C())
	}
}

func TestDynamicLowersCUnderAcceptance(t *testing.T) {
	// Busy always 0 → everything accepted → ratio 1 > 0.6 → c-- per
	// window. At the floor the algorithm oscillates by design: with c=0
	// nothing is accepted, the ratio drops below 0.4 and c comes back to
	// 1 — so steady idle state is c ∈ {0, 1}. Five windows of refusals
	// first take c from 1 to 6.
	p := NewDynamic(50)
	sb := &fakeBoard{busy: 32, total: 32}
	for i := 0; i < 50*5; i++ {
		p.Accept(sb)
	}
	if p.C() != 6 {
		t.Fatalf("c = %d after 5 windows of refusals, want 6", p.C())
	}
	sb.busy = 0
	for i := 0; i < 50*20; i++ {
		p.Accept(sb)
	}
	if p.C() > 1 {
		t.Fatalf("c = %d after steady acceptance, want ≤1", p.C())
	}
}

func TestDynamicStableInBand(t *testing.T) {
	// Two windows of refusals take c from 1 to 3; the adapting call at
	// 100 is refused and counts in the next window. Then half the offers
	// are accepted → ratio 0.5 ∈ [0.4, 0.6] → c stays.
	p := NewDynamic(50)
	sb := &fakeBoard{busy: 32, total: 32}
	for i := 0; i < 50*2; i++ {
		p.Accept(sb)
	}
	if p.C() != 3 {
		t.Fatalf("c = %d after 2 windows of refusals, want 3", p.C())
	}
	for i := 0; i < 50*10; i++ {
		if i%2 == 0 {
			sb.busy = 0 // below c → accept
		} else {
			sb.busy = 10 // above c → refuse
		}
		p.Accept(sb)
	}
	if p.C() != 3 {
		t.Fatalf("c = %d, want stable 3", p.C())
	}
}

func TestDynamicConvergesToHalfRatio(t *testing.T) {
	// Simulated stationary busy distribution: busy uniform over [0, 8).
	// The policy should settle near c=4 where P(busy<c)≈1/2.
	p := NewDynamic(0)
	sb := &fakeBoard{total: 32}
	seq := 0
	for i := 0; i < 50*200; i++ {
		sb.busy = seq % 8
		seq++
		p.Accept(sb)
	}
	if p.C() < 3 || p.C() > 5 {
		t.Fatalf("c = %d, want ≈4", p.C())
	}
}

func TestDynamicWindowExactness(t *testing.T) {
	// Adaptation must occur exactly at window boundaries.
	p := NewDynamic(10)
	sb := &fakeBoard{busy: 31, total: 32}
	for i := 0; i < 9; i++ {
		p.Accept(sb)
		if p.C() != 1 {
			t.Fatalf("c changed mid-window at attempt %d", i)
		}
	}
	p.Accept(sb) // 10th decision crosses the boundary on the next call
	p.Accept(sb)
	if p.C() != 2 {
		t.Fatalf("c = %d after window of refusals, want 2", p.C())
	}
}

func TestAlwaysNever(t *testing.T) {
	sb := &fakeBoard{busy: 16, total: 32}
	if !(Always{}).Accept(sb) {
		t.Fatal("Always refused")
	}
	if (Never{}).Accept(sb) {
		t.Fatal("Never accepted")
	}
	if (Always{}).Name() != "Always" || (Never{}).Name() != "Never" {
		t.Fatal("names wrong")
	}
}

// TestDynamicBandEdges: the band [0.4, 0.6] is closed. At window 10
// (c = 1; busy 0 accepts, busy 7 refuses), windows of 4 and then 6
// accepts keep c, and one of 3 raises it. Each window is nine calls
// plus the refusal of the call that closed the window before, which
// counts in the next one; the first window has only the nine.
func TestDynamicBandEdges(t *testing.T) {
	p := NewDynamic(10)
	sb := &fakeBoard{total: 8}
	for _, w := range []struct{ accepts, wantC int }{{4, 1}, {6, 1}, {3, 2}} {
		for i := 0; i < 9; i++ {
			sb.busy = 7
			if i < w.accepts {
				sb.busy = 0
			}
			p.Accept(sb)
		}
		sb.busy = 7
		p.Accept(sb) // adapts, then refuses
		if p.C() != w.wantC {
			t.Fatalf("after a window of %d accepts: c = %d, want %d", w.accepts, p.C(), w.wantC)
		}
	}
}
