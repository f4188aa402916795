package metrics

import (
	"math"
	"math/rand/v2"
	"slices"
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
	if e.value != 7 {
		t.Fatalf("value = %v", e.value)
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
	c.Inc("forwards")
	if c.Get("drops") != 2 || c.Get("forwards") != 1 || c.Get("missing") != 0 {
		t.Fatal("counter values wrong")
	}
	keys := c.Keys()
	if len(keys) != 2 || keys[0] != "drops" || keys[1] != "forwards" {
		t.Fatalf("keys = %v", keys)
	}
}

// TestCounterMatchesMap drives a random mix of indexed adds, Inc on
// schema names and on other names, and Get on names never counted,
// against a map[string]uint64 model: after every step Get agrees with the
// model on every name and Keys lists exactly its non-zero names, sorted.
func TestCounterMatchesMap(t *testing.T) {
	schema := NewSchema([]string{"tx", "rx", "lost", "steered", "hunts_started"})
	names := append(slices.Clone(schema.names), "other", "zz_other", "a_other", "never")
	for seed := uint64(1); seed <= 20; seed++ {
		r := rand.New(rand.NewPCG(seed, 0))
		c, model := schema.NewCounter(), map[string]uint64{}
		for step := 0; step < 500; step++ {
			switch r.IntN(3) { // 2: count nothing, only read
			case 0:
				i, n := r.IntN(len(schema.names)), uint64(r.IntN(4))
				c.Add(i, n)
				model[schema.names[i]] += n
			case 1:
				name := names[r.IntN(len(names)-1)] // never "never"
				c.Inc(name)
				model[name]++
			}
			var want []string
			for _, name := range names {
				if got := c.Get(name); got != model[name] {
					t.Fatalf("seed %d step %d: Get(%q) = %d, model %d", seed, step, name, got, model[name])
				}
				if model[name] != 0 {
					want = append(want, name)
				}
			}
			slices.Sort(want)
			if got := c.Keys(); !slices.Equal(got, want) {
				t.Fatalf("seed %d step %d: Keys() = %v, model %v", seed, step, got, want)
			}
		}
	}
}

func TestNewSchemaRejectsBadNames(t *testing.T) {
	for _, names := range [][]string{{"tx", "rx", "tx"}, {"tx", ""}} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("NewSchema(%q) did not panic", names)
				}
			}()
			NewSchema(names)
		}()
	}
}

// The data plane's increment allocates nothing.
func TestCounterAddAllocations(t *testing.T) {
	c := NewSchema([]string{"tx", "tx_bytes"}).NewCounter()
	if n := testing.AllocsPerRun(1000, func() { c.Add(1, 84) }); n != 0 {
		t.Fatalf("Add allocates %v times per call", n)
	}
}

func TestFormatDuration(t *testing.T) {
	if got := FormatDuration(1234 * time.Millisecond); got != "1.234" {
		t.Fatalf("FormatDuration = %q", got)
	}
}
