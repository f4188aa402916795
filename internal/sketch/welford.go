package sketch

// Welford is a streaming mean/variance accumulator (Welford's online
// algorithm). It holds three words regardless of stream length and
// merges across shards with the Chan et al. parallel update.
type Welford struct {
	n    uint64
	mean float64
	m2   float64
}

// Add feeds one observation.
func (w *Welford) Add(x float64) {
	w.n++
	delta := x - w.mean
	w.mean += delta / float64(w.n)
	w.m2 += delta * (x - w.mean)
}

// Count returns the number of observations.
func (w *Welford) Count() int { return int(w.n) }

// Mean returns the running mean (0 when empty).
func (w *Welford) Mean() float64 { return w.mean }

// Merge folds other into w (Chan et al. pairwise combination). The
// result equals single-stream ingestion up to floating-point rounding.
func (w *Welford) Merge(other Welford) {
	if other.n == 0 {
		return
	}
	if w.n == 0 {
		*w = other
		return
	}
	n := w.n + other.n
	delta := other.mean - w.mean
	w.mean += delta * float64(other.n) / float64(n)
	w.m2 += other.m2 + delta*delta*float64(w.n)*float64(other.n)/float64(n)
	w.n = n
}

// Counters is the per-VIP outcome counter set: how many queries were
// offered to a VIP and how each one ended. Offered ==
// OK + Refused + Unfinished once a run has drained.
type Counters struct {
	Offered    uint64
	OK         uint64
	Refused    uint64
	Unfinished uint64
}

// Merge adds other's counts into c.
func (c *Counters) Merge(other Counters) {
	c.Offered += other.Offered
	c.OK += other.OK
	c.Refused += other.Refused
	c.Unfinished += other.Unfinished
}
