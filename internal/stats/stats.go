package stats

import (
	"math"
	"sort"
)

// Mean returns the arithmetic mean of xs (0 when empty).
func Mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	var sum float64
	for _, x := range xs {
		sum += x
	}
	return sum / float64(len(xs))
}

// Variance returns the unbiased sample variance (n−1 denominator;
// 0 when n < 2). The two-pass formula keeps it stable for the
// tightly-clustered replicate sets this package sees.
func Variance(xs []float64) float64 {
	n := len(xs)
	if n < 2 {
		return 0
	}
	m := Mean(xs)
	var ss float64
	for _, x := range xs {
		d := x - m
		ss += d * d
	}
	return ss / float64(n-1)
}

// StdDev returns the sample standard deviation.
func StdDev(xs []float64) float64 { return math.Sqrt(Variance(xs)) }

// StdErr returns the standard error of the mean, s/√n (0 when n < 2).
func StdErr(xs []float64) float64 {
	if len(xs) < 2 {
		return 0
	}
	return StdDev(xs) / math.Sqrt(float64(len(xs)))
}

// Percentile returns the p-quantile (0 ≤ p ≤ 1) of xs using linear
// interpolation between closest ranks — the same convention as
// sketch.Histogram.Quantile, so per-seed and across-seed percentiles
// are comparable. Empty input returns 0.
func Percentile(xs []float64, p float64) float64 {
	n := len(xs)
	if n == 0 {
		return 0
	}
	sorted := append([]float64(nil), xs...)
	sort.Float64s(sorted)
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
	return sorted[lo] + frac*(sorted[hi]-sorted[lo])
}

// tTable95 holds the two-sided 95% Student-t critical values
// t_{0.975,df} for df = 1…30.
var tTable95 = [...]float64{
	12.706, 4.303, 3.182, 2.776, 2.571, 2.447, 2.365, 2.306, 2.262, 2.228,
	2.201, 2.179, 2.160, 2.145, 2.131, 2.120, 2.110, 2.101, 2.093, 2.086,
	2.080, 2.074, 2.069, 2.064, 2.060, 2.056, 2.052, 2.048, 2.045, 2.042,
}

// z975 is the standard-normal 97.5% quantile, the df→∞ limit.
const z975 = 1.959964

// TInv95 returns the two-sided 95% Student-t critical value with df
// degrees of freedom: tabulated for df ≤ 30, a first-order
// Cornish-Fisher expansion around the normal quantile above (accurate
// to ~0.002 there), and the normal limit for df ≤ 0 (degenerate input).
func TInv95(df int) float64 {
	switch {
	case df <= 0:
		return z975
	case df <= len(tTable95):
		return tTable95[df-1]
	default:
		return z975 + (z975*z975*z975+z975)/(4*float64(df))
	}
}

// MeanCI95 returns the half-width of the Student-t 95% confidence
// interval on the mean of xs. With fewer than two observations the
// interval width is unknown, not zero, so n < 2 returns +Inf: a
// consumer gating on "interval narrow enough" (the adaptive
// replication controller in internal/experiments) can then never
// mistake a single replicate for a converged cell. Use
// Dist.ReportedCI95 where the value feeds serialized artifacts.
func MeanCI95(xs []float64) float64 {
	if len(xs) < 2 {
		return math.Inf(1)
	}
	return TInv95(len(xs)-1) * StdErr(xs)
}

// Dist summarizes a sample of observations: the point estimate (Mean)
// together with its dispersion across replicates. CI95 is the
// half-width of the Student-t 95% interval on the mean — report
// Mean ± CI95. N < 2 yields zero Std/StdErr but a CI95 of +Inf: with
// one observation the interval is unknown, not exact, and an infinite
// width is the value that makes "is this interval tight enough?"
// checks fail safe. Serialization boundaries map the non-finite
// sentinel back to 0 via ReportedCI95.
type Dist struct {
	N      int
	Mean   float64
	Std    float64
	StdErr float64
	CI95   float64
	Min    float64
	Max    float64
}

// Describe computes the Dist of xs.
func Describe(xs []float64) Dist {
	d := Dist{N: len(xs), Mean: Mean(xs), CI95: MeanCI95(xs)}
	if d.N == 0 {
		return d
	}
	d.Min, d.Max = xs[0], xs[0]
	for _, x := range xs[1:] {
		d.Min = math.Min(d.Min, x)
		d.Max = math.Max(d.Max, x)
	}
	d.Std = StdDev(xs)
	d.StdErr = StdErr(xs)
	d.CI95 = MeanCI95(xs)
	return d
}

// Lo returns the lower edge of the 95% interval, Mean − CI95
// (−Inf when the interval is unknown, i.e. N < 2).
func (d Dist) Lo() float64 { return d.Mean - d.CI95 }

// Hi returns the upper edge of the 95% interval, Mean + CI95
// (+Inf when the interval is unknown, i.e. N < 2).
func (d Dist) Hi() float64 { return d.Mean + d.CI95 }

// ReportedCI95 returns CI95 for serialized reports (JSON, TSV, plot
// error bars): the non-finite "unknown" sentinel of N < 2 maps to 0,
// the artifact convention documented in docs/RESULTS_SCHEMA.md — a
// zero ci95 there reads "unknown", never "exact".
func (d Dist) ReportedCI95() float64 {
	if math.IsInf(d.CI95, 0) || math.IsNaN(d.CI95) {
		return 0
	}
	return d.CI95
}

// Replicated pairs the raw per-replicate values of a metric with the
// Dist of their float64 projection — e.g. Replicated[time.Duration]
// projected to seconds, or Replicated[int] counts. The experiments
// package builds one per (cell, metric) when a Sweep carries more than
// one seed.
type Replicated[T any] struct {
	// Values are the raw per-replicate observations, in replicate order.
	Values []T
	// Dist summarizes the float64 projection of Values.
	Dist Dist
}

// NewReplicated builds a Replicated from per-replicate values and the
// projection used for aggregation.
func NewReplicated[T any](values []T, proj func(T) float64) Replicated[T] {
	xs := make([]float64, len(values))
	for i, v := range values {
		xs[i] = proj(v)
	}
	return Replicated[T]{Values: values, Dist: Describe(xs)}
}
