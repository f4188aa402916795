// Package metrics provides the measurement helpers that sit beside the
// response-time sketches of package sketch: Jain's fairness index and
// EWMA smoothing (figure 4), the paper's axis formatting, and the named
// event counters of the data-plane elements.
package metrics

import (
	"fmt"
	"math"
	"sort"
	"time"
)

// Fairness computes Jain's fairness index (Σx)² / (n·Σx²) over the given
// loads, exactly the index plotted in figure 4. By convention the index of
// an all-zero vector is 1 (a perfectly fair idle system). Range: [1/n, 1].
func Fairness(xs []float64) float64 {
	if len(xs) == 0 {
		return 1
	}
	var sum, sumsq float64
	for _, x := range xs {
		sum += x
		sumsq += x * x
	}
	if sumsq == 0 {
		return 1
	}
	return sum * sum / (float64(len(xs)) * sumsq)
}

// EWMA is the exponential moving average with the paper's time-aware
// parameterization (figure 4, footnote 2): α = 1 − exp(−δt/τ) where δt is
// the gap between consecutive observations and τ the smoothing constant.
type EWMA struct {
	tau   time.Duration
	value float64
	last  time.Duration
	init  bool
}

// NewEWMA creates a filter with time constant tau (τ=1s reproduces the
// paper's α = 1−e^(−δt) with δt in seconds).
func NewEWMA(tau time.Duration) *EWMA {
	if tau <= 0 {
		tau = time.Second
	}
	return &EWMA{tau: tau}
}

// Update feeds observation v at time t and returns the smoothed value.
func (e *EWMA) Update(t time.Duration, v float64) float64 {
	if !e.init {
		e.value = v
		e.last = t
		e.init = true
		return v
	}
	dt := t - e.last
	if dt < 0 {
		dt = 0
	}
	alpha := 1 - math.Exp(-float64(dt)/float64(e.tau))
	e.value += alpha * (v - e.value)
	e.last = t
	return e.value
}

// Value returns the current smoothed value.
func (e *EWMA) Value() float64 { return e.value }

// FormatDuration renders d in seconds with millisecond precision, the way
// the paper's axes are labeled.
func FormatDuration(d time.Duration) string {
	return fmt.Sprintf("%.3f", d.Seconds())
}

// Counter is a simple monotonically increasing event counter keyed by
// name, used by the data-plane elements for drop/forward accounting.
type Counter struct {
	counts map[string]uint64
}

// NewCounter returns an empty counter set.
func NewCounter() *Counter { return &Counter{counts: make(map[string]uint64)} }

// Inc increments key by 1.
func (c *Counter) Inc(key string) { c.counts[key]++ }

// Addn increments key by n.
func (c *Counter) Addn(key string, n uint64) { c.counts[key] += n }

// Get returns the current count for key.
func (c *Counter) Get(key string) uint64 { return c.counts[key] }

// Keys returns all keys in sorted order.
func (c *Counter) Keys() []string {
	keys := make([]string, 0, len(c.counts))
	for k := range c.counts {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}
