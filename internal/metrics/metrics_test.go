package metrics

import (
	"math"
	"testing"
	"testing/quick"
	"time"
)

func TestFairness(t *testing.T) {
	if got := Fairness([]float64{5, 5, 5, 5}); math.Abs(got-1) > 1e-12 {
		t.Fatalf("equal loads fairness = %v, want 1", got)
	}
	// One hot server out of n → 1/n.
	xs := make([]float64, 12)
	xs[3] = 7
	if got := Fairness(xs); math.Abs(got-1.0/12) > 1e-12 {
		t.Fatalf("single hot fairness = %v, want 1/12", got)
	}
	if Fairness(nil) != 1 || Fairness([]float64{0, 0}) != 1 {
		t.Fatal("degenerate fairness should be 1")
	}
	got := Fairness([]float64{1, 0, 1, 0})
	if math.Abs(got-0.5) > 1e-12 {
		t.Fatalf("half-loaded fairness = %v, want 0.5", got)
	}
}

func TestFairnessRangeQuick(t *testing.T) {
	f := func(raw []uint8) bool {
		if len(raw) == 0 {
			return true
		}
		xs := make([]float64, len(raw))
		for i, v := range raw {
			xs[i] = float64(v)
		}
		fi := Fairness(xs)
		return fi >= 1/float64(len(xs))-1e-9 && fi <= 1+1e-9
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 1000}); err != nil {
		t.Fatal(err)
	}
}

func TestEWMAConverges(t *testing.T) {
	e := NewEWMA(time.Second)
	e.Update(0, 0)
	var v float64
	for i := 1; i <= 100; i++ {
		v = e.Update(time.Duration(i)*100*time.Millisecond, 10)
	}
	if math.Abs(v-10) > 0.01 {
		t.Fatalf("EWMA did not converge: %v", v)
	}
}

func TestEWMAFirstObservation(t *testing.T) {
	e := NewEWMA(time.Second)
	if got := e.Update(5*time.Second, 7); got != 7 {
		t.Fatalf("first update = %v, want 7", got)
	}
	if e.Value() != 7 {
		t.Fatalf("value = %v", e.Value())
	}
}

func TestEWMAAlphaDependsOnGap(t *testing.T) {
	// A large gap should move the average much more than a small gap.
	small := NewEWMA(time.Second)
	small.Update(0, 0)
	vSmall := small.Update(10*time.Millisecond, 10)

	large := NewEWMA(time.Second)
	large.Update(0, 0)
	vLarge := large.Update(5*time.Second, 10)

	if vSmall >= vLarge {
		t.Fatalf("EWMA gap handling wrong: small=%v large=%v", vSmall, vLarge)
	}
	if vLarge < 9.9 {
		t.Fatalf("after 5τ gap value should be ≈10, got %v", vLarge)
	}
}

func TestEWMADefaultTau(t *testing.T) {
	e := NewEWMA(0)
	e.Update(0, 1)
	e.Update(time.Second, 2) // must not panic, tau defaulted
}

func TestCounter(t *testing.T) {
	c := NewCounter()
	c.Inc("drops")
	c.Inc("drops")
	c.Addn("forwards", 10)
	if c.Get("drops") != 2 || c.Get("forwards") != 10 || c.Get("missing") != 0 {
		t.Fatal("counter values wrong")
	}
	keys := c.Keys()
	if len(keys) != 2 || keys[0] != "drops" || keys[1] != "forwards" {
		t.Fatalf("keys = %v", keys)
	}
}

func TestFormatDuration(t *testing.T) {
	if got := FormatDuration(1234 * time.Millisecond); got != "1.234" {
		t.Fatalf("FormatDuration = %q", got)
	}
}
