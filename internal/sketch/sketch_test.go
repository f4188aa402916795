package sketch

import (
	"math"
	"math/rand/v2"
	"sort"
	"testing"
	"time"
)

// newRand gives tests a fixed-seed source; the package under test draws
// no randomness of its own.
func newRand(seed uint64) *rand.Rand {
	return rand.New(rand.NewPCG(seed, 0x5ce7c4))
}

// exactQuantile is the exact closest-rank quantile (linear between
// adjacent ranks, as stats.Percentile) of a sorted sample set.
func exactQuantile(sorted []time.Duration, p float64) time.Duration {
	n := len(sorted)
	if n == 0 {
		return 0
	}
	if p <= 0 {
		return sorted[0]
	}
	if p >= 1 {
		return sorted[n-1]
	}
	pos := p * float64(n-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	if lo == hi {
		return sorted[lo]
	}
	frac := pos - float64(lo)
	return sorted[lo] + time.Duration(frac*float64(sorted[hi]-sorted[lo]))
}

// distributions is the adversarial test matrix: heavy-tail (Pareto,
// α≈1.2 — the worst case for bucketed sketches), bimodal with widely
// separated modes, and constant streams (every quantile identical).
var distributions = []struct {
	name string
	gen  func(r *rand.Rand) time.Duration
}{
	{"heavy-tail", func(r *rand.Rand) time.Duration {
		// Pareto via inverse CDF: x = xm / U^(1/α).
		u := r.Float64()
		if u < 1e-12 {
			u = 1e-12
		}
		return time.Duration(float64(time.Millisecond) / math.Pow(u, 1/1.2))
	}},
	{"bimodal", func(r *rand.Rand) time.Duration {
		if r.Float64() < 0.5 {
			return time.Duration(float64(2*time.Millisecond) * (0.9 + 0.2*r.Float64()))
		}
		return time.Duration(float64(3*time.Second) * (0.9 + 0.2*r.Float64()))
	}},
	{"constant", func(r *rand.Rand) time.Duration {
		return 137 * time.Millisecond
	}},
	{"uniform-wide", func(r *rand.Rand) time.Duration {
		return time.Duration(r.Int64N(int64(10 * time.Second)))
	}},
}

var testQuantiles = []float64{0, 0.01, 0.1, 0.25, 0.5, 0.75, 0.9, 0.95, 0.99, 0.999, 1}

// TestQuantileErrorBound checks every reported quantile against the
// exact sorted-sample value, within the documented relative bound
// MaxRelativeError (2^−precision), on each adversarial distribution.
func TestQuantileErrorBound(t *testing.T) {
	const n = 200_000
	for _, dist := range distributions {
		t.Run(dist.name, func(t *testing.T) {
			r := newRand(0xd15)
			h := New()
			samples := make([]time.Duration, 0, n)
			for i := 0; i < n; i++ {
				v := dist.gen(r)
				h.Add(v)
				samples = append(samples, v)
			}
			sort.Slice(samples, func(i, j int) bool { return samples[i] < samples[j] })
			bound := MaxRelativeError(h.precision)
			for _, p := range testQuantiles {
				exact := exactQuantile(samples, p)
				got := h.Quantile(p)
				var rel float64
				if exact != 0 {
					rel = math.Abs(float64(got-exact)) / float64(exact)
				} else if got != 0 {
					rel = 1
				}
				if rel > bound {
					t.Errorf("p=%v: sketch %v vs exact %v — rel err %.5f > bound %.5f",
						p, got, exact, rel, bound)
				}
			}
			if h.Min() != samples[0] || h.Max() != samples[n-1] {
				t.Errorf("min/max not exact: got [%v, %v], want [%v, %v]",
					h.Min(), h.Max(), samples[0], samples[n-1])
			}
			var sum time.Duration
			for _, s := range samples {
				sum += s
			}
			if h.Sum() != sum || h.Mean() != sum/n {
				t.Errorf("sum/mean not exact: got %v/%v, want %v/%v", h.Sum(), h.Mean(), sum, sum/n)
			}
		})
	}
}

// TestExactBelowThreshold: values under 2^(precision+1) ns land in
// unit-width buckets, so small quantiles are exact, not approximate.
func TestExactBelowThreshold(t *testing.T) {
	h := New()
	limit := int64(1) << (h.precision + 1)
	for v := int64(0); v < limit; v++ {
		h.Add(time.Duration(v))
	}
	for _, p := range testQuantiles {
		want := exactQuantile(seq(limit), p)
		if got := h.Quantile(p); got != want {
			t.Errorf("p=%v: got %v, want exact %v", p, got, want)
		}
	}
}

func seq(n int64) []time.Duration {
	out := make([]time.Duration, n)
	for i := range out {
		out[i] = time.Duration(i)
	}
	return out
}

// TestMergeEqualsSingleStream: splitting a stream into shards and
// merging — in any shard order — must be byte-identical to single-stream
// ingestion. This is the property that makes across-seed pooling and
// parallel runners safe.
func TestMergeEqualsSingleStream(t *testing.T) {
	for _, dist := range distributions {
		t.Run(dist.name, func(t *testing.T) {
			const n = 50_000
			r := newRand(0x3e6)
			samples := make([]time.Duration, n)
			single := New()
			for i := range samples {
				samples[i] = dist.gen(r)
				single.Add(samples[i])
			}
			for _, shards := range []int{1, 2, 3, 7, 16} {
				parts := make([]*Histogram, shards)
				for i := range parts {
					parts[i] = New()
				}
				for i, v := range samples {
					parts[i%shards].Add(v)
				}
				// Merge back-to-front so the order differs from shard order.
				merged := New()
				for i := shards - 1; i >= 0; i-- {
					merged.Merge(parts[i])
				}
				if !merged.Equal(single) {
					t.Fatalf("shards=%d: merged state differs from single-stream", shards)
				}
				for _, p := range testQuantiles {
					if merged.Quantile(p) != single.Quantile(p) {
						t.Fatalf("shards=%d p=%v: %v != %v", shards, p, merged.Quantile(p), single.Quantile(p))
					}
				}
			}
		})
	}
}

// TestMergePrecisionMismatchPanics: silently merging across resolutions
// would void the error bound.
func TestMergePrecisionMismatchPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic on precision mismatch")
		}
	}()
	a, b := NewPrecision(8), NewPrecision(6)
	b.Add(time.Millisecond)
	a.Merge(b)
}

// TestDeterminism: the same stream always yields identical state — no
// hidden randomness, no order effects within one stream.
func TestDeterminism(t *testing.T) {
	build := func() *Histogram {
		r := newRand(0xabcd)
		h := New()
		for i := 0; i < 10_000; i++ {
			h.Add(time.Duration(r.Int64N(int64(5 * time.Second))))
		}
		return h
	}
	if !build().Equal(build()) {
		t.Fatal("two identical streams produced different histograms")
	}
}

func TestEmptyHistogram(t *testing.T) {
	h := New()
	if h.Count() != 0 || h.Mean() != 0 || h.Median() != 0 || h.Quantile(0.99) != 0 ||
		h.Min() != 0 || h.Max() != 0 || h.CDF(10) != nil {
		t.Error("empty histogram must report zeros and a nil CDF")
	}
	h.Merge(nil)
	h.Merge(New())
	if h.Count() != 0 {
		t.Error("merging empty histograms must stay empty")
	}
}

func TestNegativeClampsToZero(t *testing.T) {
	h := New()
	h.Add(-time.Second)
	if h.Min() != 0 || h.Max() != 0 || h.Count() != 1 {
		t.Errorf("negative sample must clamp to 0: min=%v max=%v", h.Min(), h.Max())
	}
}

// TestCDFMonotone: the CDF must be non-decreasing in both coordinates
// and end at fraction 1 with the exact max.
func TestCDFMonotone(t *testing.T) {
	r := newRand(0xcdf)
	h := New()
	for i := 0; i < 10_000; i++ {
		h.Add(time.Duration(r.Int64N(int64(time.Second))))
	}
	pts := h.CDF(200)
	if len(pts) != 200 {
		t.Fatalf("want 200 points, got %d", len(pts))
	}
	for i := 1; i < len(pts); i++ {
		if pts[i].Value < pts[i-1].Value || pts[i].Fraction < pts[i-1].Fraction {
			t.Fatalf("CDF not monotone at %d: %+v then %+v", i, pts[i-1], pts[i])
		}
	}
	last := pts[len(pts)-1]
	if last.Fraction != 1 || last.Value != h.Max() {
		t.Errorf("CDF must end at (max, 1): got (%v, %v)", last.Value, last.Fraction)
	}
}

// TestBucketRoundTrip: every bucket's representative value maps back to
// the same bucket, and representatives are strictly increasing.
func TestBucketRoundTrip(t *testing.T) {
	h := New()
	prev := int64(-1)
	for i := 0; i < 4096; i++ {
		v := h.bucketValue(i)
		if v <= prev {
			t.Fatalf("bucket %d: representative %d not increasing past %d", i, v, prev)
		}
		prev = v
		if got := h.bucketIndex(v); got != i {
			t.Fatalf("bucket %d: representative %d maps back to bucket %d", i, v, got)
		}
	}
}

// TestConstantMemory: the bucket count is bounded by the value range,
// not the sample count.
func TestConstantMemory(t *testing.T) {
	h := New()
	for i := 0; i < 1_000_000; i++ {
		h.Add(time.Duration(i%997) * time.Millisecond)
	}
	if h.Buckets() > (65-int(h.precision))<<h.precision {
		t.Errorf("bucket count %d exceeds range bound", h.Buckets())
	}
	before := h.Buckets()
	for i := 0; i < 1_000_000; i++ {
		h.Add(time.Duration(i%997) * time.Millisecond)
	}
	if h.Buckets() != before {
		t.Errorf("bucket count grew with sample count: %d -> %d", before, h.Buckets())
	}
}

func TestTimeBins(t *testing.T) {
	tb := NewTimeBins(10*time.Minute, 24*time.Hour)
	if tb.NumBins() != 144 {
		t.Fatalf("bins = %d, want 144", tb.NumBins())
	}
	tb.Add(0, time.Second)
	tb.Add(9*time.Minute+59*time.Second, 2*time.Second)
	tb.Add(10*time.Minute, 3*time.Second)
	tb.Add(25*time.Hour, 4*time.Second) // beyond horizon → last bin
	tb.Add(-time.Second, 5*time.Second) // before 0 → first bin
	if tb.Bin(0).Count() != 3 {
		t.Fatalf("bin0 = %d", tb.Bin(0).Count())
	}
	if tb.Bin(1).Count() != 1 {
		t.Fatalf("bin1 = %d", tb.Bin(1).Count())
	}
	if tb.Bin(143).Count() != 1 || tb.Bin(143).Max() != 4*time.Second {
		t.Fatalf("last bin = %d, max %v", tb.Bin(143).Count(), tb.Bin(143).Max())
	}
	if tb.Index(10*time.Minute-1) != 0 || tb.Index(10*time.Minute) != 1 {
		t.Fatal("bin boundary is not half-open")
	}
	if tb.BinStart(6) != time.Hour {
		t.Fatalf("BinStart(6) = %v", tb.BinStart(6))
	}
	if tb.Width() != 10*time.Minute {
		t.Fatalf("width = %v", tb.Width())
	}
	if NewTimeBins(time.Second, 0).NumBins() != 1 {
		t.Fatal("an empty horizon still needs one bin")
	}
}

func TestTimeBinsPanicsOnBadWidth(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	NewTimeBins(0, time.Hour)
}

// Once its bucket slice covers the value range, recording a sample
// allocates nothing.
func TestWarmAddAllocatesNothing(t *testing.T) {
	h := New()
	h.Add(time.Second)
	i := 0
	if n := testing.AllocsPerRun(1000, func() {
		h.Add(time.Duration(i%1000) * time.Millisecond)
		i++
	}); n != 0 {
		t.Fatalf("warm Add allocates %.1f times", n)
	}
}

// Ascending samples across 20 octaves grow the span upward at most once
// per octave, descending ones grow it downward within the same bound,
// and the two histograms hold the same buckets.
func TestAscendingAddGrowsOncePerOctave(t *testing.T) {
	const octaves = 20
	var h *Histogram
	allocs := testing.AllocsPerRun(1, func() {
		h = New()
		for e := uint(DefaultPrecision); e < DefaultPrecision+octaves; e++ {
			for v := int64(1) << e; v < 1<<(e+1); v += 1 << (e - DefaultPrecision) {
				h.Add(time.Duration(v))
			}
		}
	})
	if allocs > octaves+1 {
		t.Errorf("%d octaves of ascending adds allocated %.0f times, want at most %d", octaves, allocs, octaves+1)
	}
	var desc *Histogram
	allocs = testing.AllocsPerRun(1, func() {
		desc = New()
		for e := uint(DefaultPrecision + octaves - 1); e >= DefaultPrecision; e-- {
			for v := int64(1)<<(e+1) - 1<<(e-DefaultPrecision); v >= 1<<e; v -= 1 << (e - DefaultPrecision) {
				desc.Add(time.Duration(v))
			}
		}
	})
	if allocs > octaves+1 {
		t.Errorf("%d octaves of descending adds allocated %.0f times, want at most %d", octaves, allocs, octaves+1)
	}
	if !h.Equal(desc) || h.Buckets() != desc.Buckets() || h.Quantile(0.5) != desc.Quantile(0.5) {
		t.Errorf("ascending histogram (%d buckets) differs from descending (%d)", h.Buckets(), desc.Buckets())
	}
}

// A histogram holds only the power-of-two ranges its samples span: a
// stream of response times from 350 µs to 2.5 s spans ranges 11 to 24 at
// precision 8, 14 × 256 buckets, and nothing below the 350 µs floor.
func TestSpanHoldsOnlyOccupiedOctaves(t *testing.T) {
	h := New()
	r := newRand(0x350)
	lo, hi := math.Log(float64(350*time.Microsecond)), math.Log(float64(2500*time.Millisecond))
	for i := 0; i < 20_000; i++ {
		h.Add(time.Duration(math.Exp(lo + (hi-lo)*r.Float64())))
	}
	h.Add(350 * time.Microsecond)
	h.Add(2500 * time.Millisecond)
	if h.Buckets() != 3584 {
		t.Errorf("350 µs–2.5 s at precision 8 holds %d buckets, want 3584 (14 octaves)", h.Buckets())
	}
}

// Merging histograms whose spans do not meet, in either order and into
// an empty histogram, equals single-stream ingestion of all samples.
func TestMergeDisjointSpans(t *testing.T) {
	low, high, single := New(), New(), New()
	for i := 1; i <= 500; i++ {
		l, hv := time.Duration(i)*time.Microsecond, time.Duration(i)*time.Second
		low.Add(l)
		high.Add(hv)
		single.Add(l)
		single.Add(hv)
	}
	for name, parts := range map[string][]*Histogram{
		"high into low": {low, high}, "low into high": {high, low},
	} {
		into := parts[0].Clone()
		into.Merge(parts[1])
		empty := New()
		empty.Merge(into)
		for _, h := range []*Histogram{into, empty} {
			if !h.Equal(single) || !single.Equal(h) || h.Buckets() != single.Buckets() {
				t.Errorf("%s: merged histogram (%d buckets) differs from single stream (%d)", name, h.Buckets(), single.Buckets())
			}
			for _, p := range testQuantiles {
				if h.Quantile(p) != single.Quantile(p) {
					t.Errorf("%s: p=%v: %v != %v", name, p, h.Quantile(p), single.Quantile(p))
				}
			}
		}
	}
}

func BenchmarkHistogramAdd(b *testing.B) {
	h := New()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		h.Add(time.Duration(i%1000) * time.Millisecond)
	}
}
