// Package sketch provides streaming statistics in constant memory: a
// mergeable log-linear quantile histogram (HDR-histogram style) and
// per-VIP counter sets.
//
// The package exists so a measurement cell can run 10⁸ queries without
// retaining a per-query sample slice. Histogram memory is set by the
// range its samples span, independent of how many samples are added:
// a histogram holds 2^k buckets for each power-of-two range from its
// smallest sample's to its largest's (14 ranges, 28 KiB, for response
// times from 350 µs to 2.5 s at the default precision), and the value
// range caps it at ≤ (65−k)·2^k buckets, ~114 KiB at the default
// precision.
//
// # Determinism
//
// Nothing here draws randomness: Histogram state is a pure function of
// the multiset of added values, so ingestion order, merge order, and
// worker count cannot change the result. Two histograms built from the
// same samples — one single-stream, one merged from arbitrary shards —
// are byte-identical (see Equal and the package tests).
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
// that feeds them. It stores counts only for the octaves (2^precision
// buckets each, one power-of-two range) from its smallest sample's to
// its largest's.
type Histogram struct {
	precision uint
	base      int      // bucket index of counts[0], a multiple of 2^precision
	counts    []uint64 // counts[j] is bucket base+j: whole octaves, smallest to largest sample's
	count     uint64
	sum       int64 // exact ns total; 10⁸ samples × ~1 s each still fits
	min, max  int64
}

// New returns a Histogram at DefaultPrecision.
func New() *Histogram { return NewPrecision(DefaultPrecision) }

// NewPrecision returns a Histogram with 2^precision sub-buckets per
// power-of-two range. Precision is clamped to [1, 16].
func NewPrecision(precision uint) *Histogram {
	return &Histogram{precision: min(max(precision, 1), 16), min: math.MaxInt64}
}

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
	v := max(int64(d), 0)
	i := h.bucketIndex(v)
	if uint(i-h.base) >= uint(len(h.counts)) {
		h.cover(i, i)
	}
	h.counts[i-h.base]++
	h.count++
	h.sum += v
	h.min, h.max = min(h.min, v), max(h.max, v)
}

// cover widens the span to the whole octaves holding buckets lo…hi and
// what it already holds: one allocation and copy, as often as a sample
// lands in a new octave.
func (h *Histogram) cover(lo, hi int) {
	old, oldBase := h.counts, h.base
	if len(old) > 0 {
		lo, hi = min(lo, oldBase), max(hi, oldBase+len(old)-1)
	}
	k := h.precision
	h.base = lo >> k << k
	h.counts = make([]uint64, (hi>>k+1)<<k-h.base)
	if len(old) > 0 {
		copy(h.counts[oldBase-h.base:], old)
	}
}

// at returns the count of bucket i, zero outside the span.
func (h *Histogram) at(i int) uint64 {
	if j := i - h.base; j >= 0 && j < len(h.counts) {
		return h.counts[j]
	}
	return 0
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
	for j, c := range h.counts {
		if cum += c; cum > r {
			return min(max(h.bucketValue(h.base+j), h.min), h.max)
		}
	}
	return h.max
}

// Quantile returns the p-quantile (0 ≤ p ≤ 1) using the same
// closest-rank interpolation convention as stats.Percentile:
// pos = p·(n−1), linear between adjacent ranks. Values carry the
// package-level relative error bound, and an interpolated value never
// leaves the two ranks' values, so Quantile is monotone in p; empty
// histograms return 0.
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
	// The interpolation rounds through float64, which holds every ns
	// value below 2^53 (104 days) exactly; above, the sum can round
	// below lv or past hv, so clamp it to [lv, hv] (inside [min, max])
	// to keep Quantile monotone in p. Comparing with hv before the
	// conversion keeps a sum that rounds up to 2^63 out of int64.
	v := float64(lv) + frac*float64(hv-lv)
	if v >= float64(hv) {
		return time.Duration(hv)
	}
	return time.Duration(max(int64(v), lv))
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
	last := other.base + len(other.counts) - 1
	if other.base < h.base || last >= h.base+len(h.counts) {
		h.cover(other.base, last)
	}
	for j, c := range other.counts {
		h.counts[other.base+j-h.base] += c
	}
	h.count += other.count
	h.sum += other.sum
	h.min, h.max = min(h.min, other.min), max(h.max, other.max)
}

// Equal reports whether two histograms hold identical state — same
// precision, counts, and exact aggregates. A bucket outside either
// histogram's span counts as zero, so a merged histogram equals its
// single-stream twin even if their spans grew differently.
func (h *Histogram) Equal(other *Histogram) bool {
	if h.precision != other.precision || h.count != other.count ||
		h.sum != other.sum || h.min != other.min || h.max != other.max {
		return false
	}
	lo, hi := min(h.base, other.base), max(h.base+len(h.counts), other.base+len(other.counts))
	for i := lo; i < hi; i++ {
		if h.at(i) != other.at(i) {
			return false
		}
	}
	return true
}

// Buckets returns the length of the span: 2^precision buckets for each
// power-of-two range from the smallest sample's to the largest's — the
// memory footprint, useful in tests asserting constant-memory behavior.
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
