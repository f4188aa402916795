// Package rng provides seeded random sources and the distributions used by
// the SRLB workloads: exponential service times (the paper's Poisson/PHP
// workload, §V-A), log-normal and Pareto tails (Wikipedia page costs, §VI),
// Zipf page popularity, and homogeneous/nonhomogeneous Poisson processes
// (the diurnal Wikipedia request rate).
//
// All randomness in the repository flows through this package so that every
// experiment is reproducible from a single seed.
package rng

import (
	"math"
	"math/rand/v2"
	"time"
)

// New returns a deterministic PCG-backed source for the given seed.
func New(seed uint64) *rand.Rand {
	return rand.New(rand.NewPCG(seed, 0x5317_1b5e_ed5e_ed00))
}

// Split derives an independent source from seed and a stream index, so
// subsystems (arrivals, selection, service times, …) consume independent
// streams and adding draws to one does not perturb the others.
func Split(seed uint64, stream uint64) *rand.Rand {
	return rand.New(rand.NewPCG(seed, 0x9e37_79b9_7f4a_7c15^stream))
}

// Exp draws an exponentially distributed duration with the given mean.
func Exp(r *rand.Rand, mean time.Duration) time.Duration {
	if mean <= 0 {
		return 0
	}
	return time.Duration(r.ExpFloat64() * float64(mean))
}

// ExpRate draws an exponential inter-arrival time for a Poisson process of
// the given rate (events per second).
func ExpRate(r *rand.Rand, ratePerSec float64) time.Duration {
	if ratePerSec <= 0 {
		return time.Duration(math.MaxInt64)
	}
	return time.Duration(r.ExpFloat64() / ratePerSec * float64(time.Second))
}

// LogNormal draws a log-normally distributed duration parameterized by the
// distribution's mean and coefficient of variation (stddev/mean), which is
// the natural way to specify "median-ish with a heavy tail" service times.
func LogNormal(r *rand.Rand, mean time.Duration, cv float64) time.Duration {
	if mean <= 0 {
		return 0
	}
	if cv <= 0 {
		return mean
	}
	sigma2 := math.Log(1 + cv*cv)
	mu := math.Log(float64(mean)) - sigma2/2
	return time.Duration(math.Exp(mu + math.Sqrt(sigma2)*r.NormFloat64()))
}

// Zipf generates Zipf-distributed integers in [0, n) with exponent s > 1
// is not required; any s > 0 is accepted (s=0 degenerates to uniform).
// math/rand/v2 dropped the v1 Zipf generator, so this is a from-scratch
// implementation using Chlebus' inverse-CDF approximation over a
// precomputed cumulative table (exact, O(log n) per draw).
type Zipf struct {
	cdf []float64 // cdf[i] = P(X <= i)
	r   *rand.Rand
}

// NewZipf builds a Zipf sampler over ranks 0..n-1 with exponent s.
// Rank 0 is the most popular item.
func NewZipf(r *rand.Rand, n int, s float64) *Zipf {
	if n <= 0 {
		panic("rng: Zipf needs n > 0")
	}
	cdf := make([]float64, n)
	sum := 0.0
	for i := 0; i < n; i++ {
		sum += 1 / math.Pow(float64(i+1), s)
		cdf[i] = sum
	}
	inv := 1 / sum
	for i := range cdf {
		cdf[i] *= inv
	}
	cdf[n-1] = 1 // guard against FP round-down
	return &Zipf{cdf: cdf, r: r}
}

// N returns the number of ranks.
func (z *Zipf) N() int { return len(z.cdf) }

// Draw returns a rank in [0, n), rank 0 most popular.
func (z *Zipf) Draw() int {
	u := z.r.Float64()
	// Binary search for the first index with cdf[i] >= u.
	lo, hi := 0, len(z.cdf)-1
	for lo < hi {
		mid := (lo + hi) / 2
		if z.cdf[mid] < u {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	return lo
}

// Poisson is a homogeneous Poisson arrival process.
type Poisson struct {
	r    *rand.Rand
	rate float64 // events per second
	next time.Duration
}

// NewPoisson creates a Poisson process with the given rate (events/sec)
// whose first arrival is drawn from time start.
func NewPoisson(r *rand.Rand, ratePerSec float64, start time.Duration) *Poisson {
	p := &Poisson{r: r, rate: ratePerSec, next: start}
	p.next += ExpRate(r, ratePerSec)
	return p
}

// Next returns the next arrival time and advances the process.
func (p *Poisson) Next() time.Duration {
	t := p.next
	p.next += ExpRate(p.r, p.rate)
	return t
}

// RateFn maps absolute time to an instantaneous rate (events/second).
type RateFn func(t time.Duration) float64

// NHPP is a nonhomogeneous Poisson process generated by thinning
// (Lewis & Shedler): candidate arrivals are drawn at rateMax and accepted
// with probability rate(t)/rateMax.
type NHPP struct {
	r       *rand.Rand
	rate    RateFn
	rateMax float64
	t       time.Duration
}

// NewNHPP creates a nonhomogeneous Poisson process. rateMax must bound
// rate(t) from above over the simulated horizon.
func NewNHPP(r *rand.Rand, rate RateFn, rateMax float64, start time.Duration) *NHPP {
	if rateMax <= 0 {
		panic("rng: NHPP needs rateMax > 0")
	}
	return &NHPP{r: r, rate: rate, rateMax: rateMax, t: start}
}

// Next returns the next accepted arrival time, or ok=false if none occurs
// before horizon.
func (p *NHPP) Next(horizon time.Duration) (time.Duration, bool) {
	for {
		// The gap meets the horizon as a float: at a tiny rateMax it is
		// past MaxInt64 ns, and as a Duration it would wrap negative.
		gap := p.r.ExpFloat64() / p.rateMax * float64(time.Second)
		if gap >= float64(horizon-p.t) {
			p.t = horizon
			return 0, false
		}
		p.t += time.Duration(gap)
		lambda := p.rate(p.t)
		if lambda < 0 {
			lambda = 0
		}
		if lambda > p.rateMax {
			// The bound is violated: accepting with probability 1 keeps the
			// process well defined (slightly under-dispersed); callers should
			// pass a correct bound.
			return p.t, true
		}
		if p.r.Float64()*p.rateMax < lambda {
			return p.t, true
		}
	}
}
