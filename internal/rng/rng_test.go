package rng

import (
	"math"
	"testing"
	"time"
)

func TestExpMean(t *testing.T) {
	r := New(1)
	const n = 200000
	mean := 100 * time.Millisecond
	var sum time.Duration
	for i := 0; i < n; i++ {
		sum += Exp(r, mean)
	}
	got := float64(sum) / n
	want := float64(mean)
	if math.Abs(got-want)/want > 0.02 {
		t.Fatalf("Exp mean = %v, want %v ±2%%", time.Duration(got), mean)
	}
}

func TestExpNonPositiveMean(t *testing.T) {
	r := New(1)
	if Exp(r, 0) != 0 || Exp(r, -time.Second) != 0 {
		t.Fatal("Exp with non-positive mean should be 0")
	}
}

func TestExpRateMean(t *testing.T) {
	r := New(2)
	const n = 100000
	var sum time.Duration
	for i := 0; i < n; i++ {
		sum += ExpRate(r, 50) // 50 events/sec => mean 20ms
	}
	got := float64(sum) / n
	want := float64(20 * time.Millisecond)
	if math.Abs(got-want)/want > 0.03 {
		t.Fatalf("ExpRate mean = %v, want 20ms ±3%%", time.Duration(got))
	}
}

func TestExpRateZero(t *testing.T) {
	r := New(2)
	if ExpRate(r, 0) != time.Duration(math.MaxInt64) {
		t.Fatal("ExpRate(0) should be effectively infinite")
	}
}

func TestLogNormalMeanAndCV(t *testing.T) {
	r := New(3)
	const n = 300000
	mean := 150 * time.Millisecond
	cv := 0.8
	var sum, sumsq float64
	for i := 0; i < n; i++ {
		x := float64(LogNormal(r, mean, cv))
		sum += x
		sumsq += x * x
	}
	m := sum / n
	v := sumsq/n - m*m
	gotCV := math.Sqrt(v) / m
	if math.Abs(m-float64(mean))/float64(mean) > 0.02 {
		t.Fatalf("LogNormal mean = %v, want %v", time.Duration(m), mean)
	}
	if math.Abs(gotCV-cv) > 0.05 {
		t.Fatalf("LogNormal cv = %v, want %v", gotCV, cv)
	}
}

func TestLogNormalDegenerate(t *testing.T) {
	r := New(3)
	if LogNormal(r, 0, 1) != 0 {
		t.Fatal("LogNormal mean 0 should be 0")
	}
	if LogNormal(r, time.Second, 0) != time.Second {
		t.Fatal("LogNormal cv 0 should be the mean")
	}
}

func TestZipfDistribution(t *testing.T) {
	r := New(7)
	z := NewZipf(r, 100, 1.0)
	counts := make([]int, 100)
	const n = 200000
	for i := 0; i < n; i++ {
		counts[z.Draw()]++
	}
	// Rank 0 should be the most frequent and roughly prob(0)*n, where
	// prob(0) = 1/H(100), the harmonic number.
	var h float64
	for k := 1; k <= 100; k++ {
		h += 1 / float64(k)
	}
	p0 := 1 / h
	got := float64(counts[0]) / n
	if math.Abs(got-p0)/p0 > 0.05 {
		t.Fatalf("rank-0 freq %v, want %v ±5%%", got, p0)
	}
	// Monotone trend: first rank much more popular than the 50th.
	if counts[0] < counts[49]*5 {
		t.Fatalf("Zipf head not heavy enough: counts[0]=%d counts[49]=%d", counts[0], counts[49])
	}
}

// The cumulative table Draw searches is a proper distribution: it rises
// and ends at exactly 1, so every draw is a valid rank.
func TestZipfProbSumsToOne(t *testing.T) {
	r := New(8)
	z := NewZipf(r, 50, 0.8)
	for i := 1; i < z.N(); i++ {
		if z.cdf[i] < z.cdf[i-1] {
			t.Fatalf("cdf falls at rank %d: %v < %v", i, z.cdf[i], z.cdf[i-1])
		}
	}
	if z.cdf[z.N()-1] != 1 {
		t.Fatalf("Zipf probs sum to %v, want 1", z.cdf[z.N()-1])
	}
	for i := 0; i < 10000; i++ {
		if k := z.Draw(); k < 0 || k >= z.N() {
			t.Fatalf("Draw returned rank %d outside [0, %d)", k, z.N())
		}
	}
}

func TestZipfUniformWhenSZero(t *testing.T) {
	r := New(9)
	z := NewZipf(r, 10, 0)
	for i := 0; i < 10; i++ {
		if want := float64(i+1) / 10; math.Abs(z.cdf[i]-want) > 1e-9 {
			t.Fatalf("s=0 should be uniform, P(X <= %d)=%v", i, z.cdf[i])
		}
	}
}

func TestZipfPanicsOnBadN(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic for n<=0")
		}
	}()
	NewZipf(New(1), 0, 1)
}

func TestPoissonProcessRate(t *testing.T) {
	r := New(10)
	p := NewPoisson(r, 100, 0) // 100 events/sec
	horizon := 100 * time.Second
	count := 0
	for {
		ts := p.Next()
		if ts >= horizon {
			break
		}
		count++
	}
	// Expect ~10000 events; 3 sigma ≈ 300.
	if count < 9600 || count > 10400 {
		t.Fatalf("Poisson produced %d events in 100s at rate 100, want ≈10000", count)
	}
}

func TestPoissonMonotone(t *testing.T) {
	r := New(11)
	p := NewPoisson(r, 1000, time.Second)
	prev := time.Duration(0)
	for i := 0; i < 1000; i++ {
		ts := p.Next()
		if ts < prev {
			t.Fatal("Poisson arrivals must be nondecreasing")
		}
		if ts < time.Second {
			t.Fatal("arrivals must start after the start time")
		}
		prev = ts
	}
}

func TestNHPPMatchesRate(t *testing.T) {
	r := New(12)
	// rate: 50/s in the first half, 150/s in the second half.
	rate := func(t time.Duration) float64 {
		if t < 50*time.Second {
			return 50
		}
		return 150
	}
	p := NewNHPP(r, rate, 150, 0)
	horizon := 100 * time.Second
	var first, second int
	for {
		ts, ok := p.Next(horizon)
		if !ok {
			break
		}
		if ts < 50*time.Second {
			first++
		} else {
			second++
		}
	}
	if first < 2200 || first > 2800 {
		t.Fatalf("NHPP first half: %d events, want ≈2500", first)
	}
	if second < 7000 || second > 8000 {
		t.Fatalf("NHPP second half: %d events, want ≈7500", second)
	}
}

func TestNHPPHorizon(t *testing.T) {
	r := New(13)
	p := NewNHPP(r, func(time.Duration) float64 { return 10 }, 10, 0)
	for {
		ts, ok := p.Next(time.Second)
		if !ok {
			break
		}
		if ts >= time.Second {
			t.Fatalf("arrival %v beyond horizon", ts)
		}
	}
}

// A rate bound so small that the first gap is past MaxInt64 ns ends the
// process at the horizon; it used to wrap to a negative arrival time.
func TestNHPPTinyRateEndsAtHorizon(t *testing.T) {
	for _, rateMax := range []float64{1e-300, 1e-15} {
		p := NewNHPP(New(14), func(time.Duration) float64 { return rateMax }, rateMax, 0)
		for i := 0; i < 3; i++ {
			if ts, ok := p.Next(24 * time.Hour); ok || ts < 0 {
				t.Fatalf("rateMax %g: Next = %v, %v; want no arrival", rateMax, ts, ok)
			}
		}
	}
}

func TestNHPPPanicsOnBadBound(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic for rateMax<=0")
		}
	}()
	NewNHPP(New(1), func(time.Duration) float64 { return 1 }, 0, 0)
}

func TestDeterminism(t *testing.T) {
	a, b := New(99), New(99)
	for i := 0; i < 1000; i++ {
		if Exp(a, time.Second) != Exp(b, time.Second) {
			t.Fatal("same seed must give same stream")
		}
	}
}

func TestSplitIndependence(t *testing.T) {
	a := Split(7, 0)
	b := Split(7, 1)
	same := 0
	for i := 0; i < 1000; i++ {
		if a.Uint64() == b.Uint64() {
			same++
		}
	}
	if same > 2 {
		t.Fatalf("split streams look identical (%d collisions)", same)
	}
}

func BenchmarkZipfDraw(b *testing.B) {
	z := NewZipf(New(1), 1_000_000, 0.99)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		z.Draw()
	}
}

func BenchmarkExp(b *testing.B) {
	r := New(1)
	for i := 0; i < b.N; i++ {
		Exp(r, 100*time.Millisecond)
	}
}
