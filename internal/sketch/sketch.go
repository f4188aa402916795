// Package sketch provides streaming statistics in constant memory: a
// mergeable log-linear quantile histogram (HDR-histogram style), a
// Welford mean/variance accumulator, and per-VIP counter sets.
//
// The package exists so a measurement cell can run 10⁸ queries without
// retaining a per-query sample slice: Histogram memory is bounded by the
// value range alone (≤ (65−k)·2^k buckets, ~114 KiB at the default
// precision), independent of how many samples are added.
//
// # Determinism
//
// Nothing here draws randomness: Histogram state is a pure function of
// the multiset of added values, so ingestion order, merge order, and
// worker count cannot change the result. Two histograms built from the
// same samples — one single-stream, one merged from arbitrary shards —
// are byte-identical (see Equal and the package tests). Welford merge is
// the Chan et al. pairwise update; it is exact in ℝ but, being floating
// point, merge order can perturb the last few ulps (tests bound this).
//
// # Error bound
//
// Histogram buckets are exact integers below 2^(precision+1) ns and
// log-linear above: each power-of-two range [2^e, 2^(e+1)) is split into
// 2^precision equal sub-buckets, and a bucket reports its midpoint.
// The worst-case relative error of any reported quantile value is
// therefore (width/2)/low = 2^−(precision+1); this package documents and
// tests the slightly looser bound 2^−precision. At the default precision
// of 8 that is ≤ 1/256 ≈ 0.4% — far below the across-seed variance of
// any experiment in this repository. Count, Sum, Mean, Min and Max are
// always exact.
package sketch

import (
	"math"
	"math/bits"
	"time"
)

// DefaultPrecision is the sub-bucket resolution used by New: 2^8 = 256
// sub-buckets per power-of-two range, a ≤ 2^−8 relative error bound.
const DefaultPrecision = 8

// MaxRelativeError returns the documented worst-case relative error of
// quantile values reported at the given precision: 2^−precision.
// (The theoretical midpoint bound is 2^−(precision+1); the doubled bound
// leaves slack for rank interpolation between adjacent buckets.)
func MaxRelativeError(precision uint) float64 {
	return math.Ldexp(1, -int(precision))
}

// Histogram is a log-linear streaming histogram over non-negative
// durations. The zero value is not ready to use; call New or
// NewPrecision. All methods are single-goroutine, like the simulator
// that feeds them.
type Histogram struct {
	precision uint
	counts    []uint64
	count     uint64
	sum       int64 // exact ns total; 10⁸ samples × ~1 s each still fits
	min, max  int64
}

// New returns a Histogram at DefaultPrecision.
func New() *Histogram { return NewPrecision(DefaultPrecision) }

// NewPrecision returns a Histogram with 2^precision sub-buckets per
// power-of-two range. Precision is clamped to [1, 16].
func NewPrecision(precision uint) *Histogram {
	if precision < 1 {
		precision = 1
	}
	if precision > 16 {
		precision = 16
	}
	return &Histogram{precision: precision, min: math.MaxInt64}
}

// Precision returns the sub-bucket resolution exponent.
func (h *Histogram) Precision() uint { return h.precision }

// bucketIndex maps a non-negative ns value to its bucket. Values below
// 2^(precision+1) map to themselves (exact); above, each power-of-two
// range [2^e, 2^(e+1)) splits into 2^precision equal sub-buckets.
func (h *Histogram) bucketIndex(v int64) int {
	u := uint64(v)
	k := h.precision
	if u < 1<<k {
		return int(u)
	}
	e := uint(bits.Len64(u)) - 1
	sub := u >> (e - k) // in [2^k, 2^(k+1))
	return int((uint64(e-k+1) << k) + (sub - 1<<k))
}

// bucketValue returns the representative (midpoint) value of bucket i —
// the inverse of bucketIndex up to sub-bucket width.
func (h *Histogram) bucketValue(i int) int64 {
	k := h.precision
	if uint64(i) < 1<<(k+1) {
		return int64(i)
	}
	e := uint(i>>k) + k - 1
	sub := uint64(i&(1<<k-1)) + 1<<k
	low := sub << (e - k)
	width := uint64(1) << (e - k)
	return int64(low + width/2)
}

// Add records one sample. Negative durations clamp to zero (response
// times cannot be negative; the clamp keeps a buggy caller visible in
// the zero bucket rather than panicking mid-simulation).
func (h *Histogram) Add(d time.Duration) {
	v := int64(d)
	if v < 0 {
		v = 0
	}
	i := h.bucketIndex(v)
	if i >= len(h.counts) {
		grown := make([]uint64, i+1)
		copy(grown, h.counts)
		h.counts = grown
	}
	h.counts[i]++
	h.count++
	h.sum += v
	if v < h.min {
		h.min = v
	}
	if v > h.max {
		h.max = v
	}
}

// Count returns the number of samples.
func (h *Histogram) Count() int { return int(h.count) }

// Sum returns the exact sum of all samples.
func (h *Histogram) Sum() time.Duration { return time.Duration(h.sum) }

// Mean returns the exact sample mean (0 when empty).
func (h *Histogram) Mean() time.Duration {
	if h.count == 0 {
		return 0
	}
	return time.Duration(h.sum / int64(h.count))
}

// Min returns the exact smallest sample (0 when empty).
func (h *Histogram) Min() time.Duration {
	if h.count == 0 {
		return 0
	}
	return time.Duration(h.min)
}

// Max returns the exact largest sample.
func (h *Histogram) Max() time.Duration {
	if h.count == 0 {
		return 0
	}
	return time.Duration(h.max)
}

// valueAtRank returns the representative value of the sample at 0-based
// rank r of the sorted stream, with the exact min and max substituted at
// the extremes (they are tracked exactly, so the tails never widen).
// Mid-rank bucket representatives are clamped to [min, max]: a bucket
// midpoint can sit below the true minimum when every sample lands in
// one bucket, and unclamped that makes Quantile non-monotone near the
// tails.
func (h *Histogram) valueAtRank(r uint64) int64 {
	if r == 0 {
		return h.min
	}
	if r >= h.count-1 {
		return h.max
	}
	var cum uint64
	for i, c := range h.counts {
		cum += c
		if cum > r {
			v := h.bucketValue(i)
			if v < h.min {
				v = h.min
			}
			if v > h.max {
				v = h.max
			}
			return v
		}
	}
	return h.max
}

// Quantile returns the p-quantile (0 ≤ p ≤ 1) using the same
// closest-rank interpolation convention as stats.Percentile:
// pos = p·(n−1), linear between adjacent ranks. Values carry the
// package-level relative error bound; empty histograms return 0.
func (h *Histogram) Quantile(p float64) time.Duration {
	if h.count == 0 {
		return 0
	}
	if p <= 0 {
		return time.Duration(h.min)
	}
	if p >= 1 {
		return time.Duration(h.max)
	}
	pos := p * float64(h.count-1)
	lo := uint64(math.Floor(pos))
	hi := uint64(math.Ceil(pos))
	lv := h.valueAtRank(lo)
	if lo == hi {
		return time.Duration(lv)
	}
	hv := h.valueAtRank(hi)
	frac := pos - float64(lo)
	v := int64(float64(lv) + frac*float64(hv-lv))
	// The interpolation rounds through float64, whose 52-bit mantissa
	// cannot represent ns values near the int64 extremes exactly; clamp
	// so the rounded value never escapes the exact [min, max] envelope
	// the tail quantiles report.
	if v < h.min {
		v = h.min
	}
	if v > h.max {
		v = h.max
	}
	return time.Duration(v)
}

// Median returns the 0.5-quantile.
func (h *Histogram) Median() time.Duration { return h.Quantile(0.5) }

// Deciles returns quantiles 0.1 … 0.9, the series of paper figure 7.
func (h *Histogram) Deciles() [9]time.Duration {
	var out [9]time.Duration
	for i := 1; i <= 9; i++ {
		out[i-1] = h.Quantile(float64(i) / 10)
	}
	return out
}

// CDFPoint is one point of an empirical CDF.
type CDFPoint struct {
	Value    time.Duration
	Fraction float64
}

// CDF returns (value, cumulative-fraction) pairs at up to maxPoints
// evenly spaced ranks, with bucket-representative values — the curves
// of figures 3, 5 and 8.
func (h *Histogram) CDF(maxPoints int) []CDFPoint {
	n := int(h.count)
	if n == 0 {
		return nil
	}
	if maxPoints <= 0 || maxPoints > n {
		maxPoints = n
	}
	out := make([]CDFPoint, 0, maxPoints)
	for i := 0; i < maxPoints; i++ {
		rank := (i + 1) * n / maxPoints // 1..n
		out = append(out, CDFPoint{
			Value:    time.Duration(h.valueAtRank(uint64(rank - 1))),
			Fraction: float64(rank) / float64(n),
		})
	}
	return out
}

// Merge folds other into h. Bucket counts add exactly, so
// merge(a, b) is byte-identical to single-stream ingestion of the
// combined samples, in any order. Precisions must match (panic
// otherwise: merging across resolutions silently loses the error
// bound). A nil or empty other is a no-op.
func (h *Histogram) Merge(other *Histogram) {
	if other == nil || other.count == 0 {
		return
	}
	if other.precision != h.precision {
		panic("sketch: merging histograms of different precision")
	}
	if len(other.counts) > len(h.counts) {
		grown := make([]uint64, len(other.counts))
		copy(grown, h.counts)
		h.counts = grown
	}
	for i, c := range other.counts {
		h.counts[i] += c
	}
	h.count += other.count
	h.sum += other.sum
	if other.min < h.min {
		h.min = other.min
	}
	if other.max > h.max {
		h.max = other.max
	}
}

// Equal reports whether two histograms hold identical state — same
// precision, counts, and exact aggregates. Trailing zero buckets are
// ignored, so a merged histogram equals its single-stream twin even if
// their slices grew differently.
func (h *Histogram) Equal(other *Histogram) bool {
	if h.precision != other.precision || h.count != other.count ||
		h.sum != other.sum || h.min != other.min || h.max != other.max {
		return false
	}
	long, short := h.counts, other.counts
	if len(short) > len(long) {
		long, short = short, long
	}
	for i, c := range short {
		if long[i] != c {
			return false
		}
	}
	for _, c := range long[len(short):] {
		if c != 0 {
			return false
		}
	}
	return true
}

// Buckets returns the number of allocated buckets — the memory footprint
// knob, useful in tests asserting constant-memory behavior.
func (h *Histogram) Buckets() int { return len(h.counts) }

// Clone returns an independent deep copy.
func (h *Histogram) Clone() *Histogram {
	c := *h
	c.counts = append([]uint64(nil), h.counts...)
	return &c
}

// TimeBins partitions a time horizon into fixed-width bins, each with
// its own Histogram — the 10-minute bins of figures 6 and 7.
type TimeBins struct {
	width time.Duration
	bins  []*Histogram
}

// NewTimeBins creates bins of the given width covering [0, horizon).
func NewTimeBins(width, horizon time.Duration) *TimeBins {
	if width <= 0 {
		panic("sketch: bin width must be positive")
	}
	bins := make([]*Histogram, max(1, int((horizon+width-1)/width)))
	for i := range bins {
		bins[i] = New()
	}
	return &TimeBins{width: width, bins: bins}
}

// Index returns the bin holding time t; times before 0 or beyond the
// horizon land in the first or last bin.
func (tb *TimeBins) Index(t time.Duration) int {
	return min(max(int(t/tb.width), 0), len(tb.bins)-1)
}

// Add records sample d at time t.
func (tb *TimeBins) Add(t, d time.Duration) { tb.bins[tb.Index(t)].Add(d) }

// NumBins returns the number of bins.
func (tb *TimeBins) NumBins() int { return len(tb.bins) }

// Width returns the bin width.
func (tb *TimeBins) Width() time.Duration { return tb.width }

// Bin returns the histogram of bin i.
func (tb *TimeBins) Bin(i int) *Histogram { return tb.bins[i] }

// BinStart returns the start time of bin i.
func (tb *TimeBins) BinStart(i int) time.Duration { return time.Duration(i) * tb.width }
