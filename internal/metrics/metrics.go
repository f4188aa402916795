// Package metrics provides the measurement helpers that sit beside the
// response-time sketches of package sketch: Jain's fairness index and
// EWMA smoothing (figure 4), the paper's axis formatting, and the named
// event counters of the data-plane elements, which count by slot index
// so that no packet hashes a string to be counted.
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

// FormatDuration renders d in seconds with millisecond precision, the way
// the paper's axes are labeled.
func FormatDuration(d time.Duration) string {
	return fmt.Sprintf("%.3f", d.Seconds())
}

// Schema is one layer's counter names in slot order. A layer builds one
// at package init from a keyed literal over its own constants, so the
// compiler ties each index to its name, and all its nodes share it.
type Schema struct {
	names []string
	index map[string]int
}

// NewSchema returns the schema of names, in slot order. It panics on an
// empty name (a gap in the keyed literal) or a repeated one.
func NewSchema(names []string) *Schema {
	s := &Schema{names: names, index: make(map[string]int, len(names))}
	for i, name := range names {
		if _, dup := s.index[name]; dup || name == "" {
			panic(fmt.Sprintf("metrics: counter name %q at slot %d is empty or repeated", name, i))
		}
		s.index[name] = i
	}
	return s
}

// NewCounter returns a zeroed counter set over the schema's names.
func (s *Schema) NewCounter() *Counter {
	return &Counter{schema: s, slots: make([]uint64, len(s.names))}
}

// Counter is a set of monotonically increasing named event counters, the
// data-plane elements' drop/forward accounting. The data plane adds to
// its schema's slots by index (Add); Inc and Get reach them by name, and
// count any other name in a side map made on first use.
type Counter struct {
	schema *Schema
	slots  []uint64
	other  map[string]uint64
}

// NewCounter returns an empty counter set without a schema.
func NewCounter() *Counter { return NewSchema(nil).NewCounter() }

// Add adds n to the schema's slot i.
func (c *Counter) Add(i int, n uint64) { c.slots[i] += n }

// Inc increments the counter called name by 1.
func (c *Counter) Inc(name string) {
	if i, ok := c.schema.index[name]; ok {
		c.slots[i]++
	} else if c.other != nil {
		c.other[name]++
	} else {
		c.other = map[string]uint64{name: 1}
	}
}

// Get returns the current count for name, 0 for a name never counted.
func (c *Counter) Get(name string) uint64 {
	if i, ok := c.schema.index[name]; ok {
		return c.slots[i]
	}
	return c.other[name]
}

// Keys returns the names whose count is non-zero, sorted. A name is
// touched once it is non-zero: adding 0 does not list it.
func (c *Counter) Keys() []string {
	keys := make([]string, 0, len(c.other))
	for i, n := range c.slots {
		if n != 0 {
			keys = append(keys, c.schema.names[i])
		}
	}
	for k := range c.other {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}
