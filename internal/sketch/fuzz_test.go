package sketch

import (
	"encoding/binary"
	"math"
	"slices"
	"testing"
	"time"
)

// FuzzHistogramMerge checks the documented merge law on arbitrary
// sample streams: splitting a stream into two shards, ingesting each
// independently, and merging must be byte-identical to single-stream
// ingestion — same buckets, same exact aggregates, same quantiles —
// and every quantile must honor the precision's relative-error bound
// against the bucket representative invariants (no panic, no NaN, and
// monotone in p).
func FuzzHistogramMerge(f *testing.F) {
	f.Add(uint8(7), []byte{1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13, 14, 15, 16})
	f.Add(uint8(1), []byte{})
	f.Add(uint8(16), []byte{0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0x7f})
	f.Fuzz(func(t *testing.T, precision uint8, data []byte) {
		// Decode the corpus as a stream of int64 ns samples (negative
		// values exercise the clamp path). Cap the stream so a huge input
		// doesn't turn one fuzz case into a long loop.
		const maxSamples = 4096
		var samples []time.Duration
		for len(data) >= 8 && len(samples) < maxSamples {
			samples = append(samples, time.Duration(binary.LittleEndian.Uint64(data)))
			data = data[8:]
		}

		p := uint(precision % 20) // includes out-of-range values the clamp absorbs
		single := NewPrecision(p)
		a, b := NewPrecision(p), NewPrecision(p)
		for i, s := range samples {
			single.Add(s)
			if i%2 == 0 {
				a.Add(s)
			} else {
				b.Add(s)
			}
		}
		a.Merge(b)
		a.Merge(nil)             // no-ops must not perturb state
		a.Merge(NewPrecision(p)) // empty histogram likewise
		if !a.Equal(single) || !single.Equal(a) {
			t.Fatalf("merged shards differ from single-stream ingestion: count %d/%d sum %d/%d",
				a.Count(), single.Count(), a.Sum(), single.Sum())
		}
		if a.Count() != len(samples) {
			t.Fatalf("count = %d, want %d", a.Count(), len(samples))
		}
		if len(samples) == 0 {
			return
		}
		// Quantiles: defined, monotone, and within the error bound of the
		// observed extremes.
		prev := time.Duration(math.MinInt64)
		relErr := MaxRelativeError(single.precision)
		for _, q := range []float64{0, 0.1, 0.25, 0.5, 0.75, 0.9, 0.99, 1} {
			v := a.Quantile(q)
			if v != single.Quantile(q) {
				t.Fatalf("quantile %v differs after merge: %v vs %v", q, v, single.Quantile(q))
			}
			if v < prev {
				t.Fatalf("quantile %v = %v below previous %v — not monotone", q, v, prev)
			}
			prev = v
			lo := float64(a.Min()) * (1 - relErr)
			hi := float64(a.Max()) * (1 + relErr)
			if float64(v) < lo || float64(v) > hi {
				t.Fatalf("quantile %v = %v outside [min, max] error envelope [%.0f, %.0f]", q, v, lo, hi)
			}
		}
	})
}

// denseModel is a reference histogram in the layout the package first
// shipped: counts[i] is bucket i, from bucket 0 up to the largest
// sample's. It borrows only the bucket geometry (bucketIndex and
// bucketValue, pinned by TestBucketRoundTrip) from a Histogram of the
// same precision; its storage, merge, copy and readers are its own.
type denseModel struct {
	geom     *Histogram
	counts   []uint64
	count    uint64
	sum      int64
	min, max int64
}

func newDenseModel(precision uint) *denseModel {
	return &denseModel{geom: NewPrecision(precision), min: math.MaxInt64}
}

func (m *denseModel) add(v int64) {
	v = max(v, 0)
	i := m.geom.bucketIndex(v)
	if i >= len(m.counts) {
		m.counts = append(m.counts, make([]uint64, i+1-len(m.counts))...)
	}
	m.counts[i]++
	m.count++
	m.sum += v
	m.min, m.max = min(m.min, v), max(m.max, v)
}

func (m *denseModel) merge(o *denseModel) {
	if o.count == 0 {
		return
	}
	src := append([]uint64(nil), o.counts...) // o may be m
	if len(src) > len(m.counts) {
		m.counts = append(m.counts, make([]uint64, len(src)-len(m.counts))...)
	}
	for i, c := range src {
		m.counts[i] += c
	}
	m.count += o.count
	m.sum += o.sum
	m.min, m.max = min(m.min, o.min), max(m.max, o.max)
}

func (m *denseModel) clone() *denseModel {
	c := *m
	c.counts = append([]uint64(nil), m.counts...)
	return &c
}

// equal compares state with trailing zero buckets ignored.
func (m *denseModel) equal(o *denseModel) bool {
	if m.count != o.count || m.sum != o.sum || m.min != o.min || m.max != o.max {
		return false
	}
	for i := range max(len(m.counts), len(o.counts)) {
		var a, b uint64
		if i < len(m.counts) {
			a = m.counts[i]
		}
		if i < len(o.counts) {
			b = o.counts[i]
		}
		if a != b {
			return false
		}
	}
	return true
}

func (m *denseModel) valueAtRank(r uint64) int64 {
	if r == 0 {
		return m.min
	}
	if r >= m.count-1 {
		return m.max
	}
	var cum uint64
	for i, c := range m.counts {
		if cum += c; cum > r {
			return min(max(m.geom.bucketValue(i), m.min), m.max)
		}
	}
	return m.max
}

func (m *denseModel) quantile(p float64) time.Duration {
	switch {
	case m.count == 0:
		return 0
	case p <= 0:
		return time.Duration(m.min)
	case p >= 1:
		return time.Duration(m.max)
	}
	pos := p * float64(m.count-1)
	lo, hi := uint64(math.Floor(pos)), uint64(math.Ceil(pos))
	lv, hv := m.valueAtRank(lo), m.valueAtRank(hi)
	if lo == hi {
		return time.Duration(lv)
	}
	v := float64(lv) + (pos-float64(lo))*float64(hv-lv)
	if v >= float64(hv) {
		return time.Duration(hv)
	}
	return time.Duration(max(int64(v), lv))
}

func (m *denseModel) cdf(points int) []CDFPoint {
	n := int(m.count)
	if n == 0 {
		return nil
	}
	if points <= 0 || points > n {
		points = n
	}
	var out []CDFPoint
	for i := range points {
		rank := (i + 1) * n / points
		out = append(out, CDFPoint{time.Duration(m.valueAtRank(uint64(rank - 1))), float64(rank) / float64(n)})
	}
	return out
}

// modelDenseLimit bounds the model's bucket slice (2 MiB): every value at
// precision 12 and below fits, and above it a value is halved until it does.
const modelDenseLimit = 1 << 18

// modelValue decodes a sample from three bytes: e = b0%64 picks the bit
// length and b1, b2 the 16 bits below the leading one, so a short input
// reaches every octave. b0 ≥ 0xfe gives the edge values 0 and −1 (the
// clamp path).
func modelValue(b0, b1, b2 byte) int64 {
	switch b0 {
	case 0xfe:
		return 0
	case 0xff:
		return -1
	}
	u := (1<<16 | uint64(b1)<<8 | uint64(b2)) << 47 // leading one at bit 63
	return int64(u >> (64 - (1 + uint(b0)%63)))
}

// modelOp encodes one operation of FuzzHistogramModel: kind 0 or 1 adds
// a sample to slot dst (three more bytes, see modelValue), 2 merges slot
// src into dst, 3 replaces dst with a clone of src (with a new empty
// histogram when src == dst).
func modelOp(kind, dst, src byte) byte { return kind | dst<<2 | src<<4 }

// modelAdd encodes an Add to slot dst of a value with bit length e
// (1..63) and the 16 bits below its leading one.
func modelAdd(dst byte, e uint8, frac uint16) []byte {
	return []byte{modelOp(0, dst, 0), e - 1, byte(frac >> 8), byte(frac)}
}

// FuzzHistogramModel runs random sequences of Add, Merge and Clone on
// three histograms and holds each, after every operation, to a
// denseModel fed the same sequence: Count, Sum, Min, Max, Mean and the
// span of whole octaves after every operation, and at the end Quantile at fixed p, Deciles, CDF at
// several point counts, and Equal between every pair of histograms,
// both ways, against the models' equality.
func FuzzHistogramModel(f *testing.F) {
	var up, down []byte
	for _, e := range []uint8{20, 24, 31, 40, 63} { // upward, then below the first
		up = append(up, modelAdd(0, e, uint16(e)*977)...)
	}
	for _, e := range []uint8{19, 12, 5, 1} {
		down = append(down, modelAdd(0, e, uint16(e)*613)...)
	}
	ops := append(append([]byte(nil), up...), down...)
	f.Add(uint8(7), ops)  // precision 8: grow up, then down
	f.Add(uint8(15), ops) // precision 16: the model halves the large values
	f.Add(uint8(0), append(ops, 0, 0xfe, 0, 0, 0, 0xff, 0, 0))
	// Disjoint spans: slot 1 low, slot 0 high; merge 1 into 0, then 0 into
	// the empty slot 2, a clone of 0 into 1, and 2 into itself.
	disjoint := append(modelAdd(1, 12, 1), modelAdd(1, 14, 2)...)
	disjoint = append(disjoint, modelAdd(0, 33, 3)...)
	disjoint = append(disjoint, modelAdd(0, 35, 4)...)
	disjoint = append(disjoint, modelOp(2, 0, 1), modelOp(2, 2, 0), modelOp(3, 1, 0), modelOp(2, 2, 2))
	disjoint = append(disjoint, modelAdd(1, 2, 5)...)
	f.Add(uint8(7), disjoint)
	f.Add(uint8(3), disjoint)
	f.Fuzz(func(t *testing.T, precision uint8, data []byte) {
		k := 1 + uint(precision)%16
		var hs [3]*Histogram
		var ms [3]*denseModel
		for i := range hs {
			hs[i], ms[i] = NewPrecision(k), newDenseModel(k)
		}
		for op := 0; len(data) > 0 && op < 512; op++ {
			b := data[0]
			data = data[1:]
			dst, src := int(b>>2&3)%3, int(b>>4&3)%3
			switch b % 4 {
			case 0, 1:
				if len(data) < 3 {
					return
				}
				v := modelValue(data[0], data[1], data[2])
				data = data[3:]
				for v > 0 && hs[dst].bucketIndex(v) >= modelDenseLimit {
					v >>= 1
				}
				hs[dst].Add(time.Duration(v))
				ms[dst].add(v)
			case 2:
				hs[dst].Merge(hs[src])
				ms[dst].merge(ms[src])
			case 3:
				if src == dst {
					hs[dst], ms[dst] = NewPrecision(k), newDenseModel(k)
				} else {
					hs[dst], ms[dst] = hs[src].Clone(), ms[src].clone()
				}
			}
			h, m := hs[dst], ms[dst]
			if h.Count() != int(m.count) || h.Sum() != time.Duration(m.sum) ||
				h.Min() != m.quantile(0) || h.Max() != m.quantile(1) ||
				(m.count > 0 && h.Mean() != time.Duration(m.sum/int64(m.count))) {
				t.Fatalf("op %d (%#x) slot %d: count/sum/min/max/mean %d/%v/%v/%v/%v, model %d/%d/%d/%d",
					op, b, dst, h.Count(), h.Sum(), h.Min(), h.Max(), h.Mean(), m.count, m.sum, m.min, m.max)
			}
			// The span is whole octaves, from the smallest sample's to the
			// largest's, and empty when there are no samples.
			base, end := 0, 0
			if m.count > 0 {
				base, end = h.bucketIndex(m.min)>>k<<k, (h.bucketIndex(m.max)>>k+1)<<k
			}
			if h.base != base || h.base+len(h.counts) != end {
				t.Fatalf("op %d (%#x) slot %d: span [%d, %d), want [%d, %d)",
					op, b, dst, h.base, h.base+len(h.counts), base, end)
			}
		}
		for s, h := range hs {
			m := ms[s]
			for _, p := range []float64{0, 0.001, 0.1, 0.25, 0.5, 0.75, 0.9, 0.99, 0.999, 1} {
				if got, want := h.Quantile(p), m.quantile(p); got != want {
					t.Fatalf("slot %d: Quantile(%v) = %v, model %v", s, p, got, want)
				}
			}
			for i, d := range h.Deciles() {
				if want := m.quantile(float64(i+1) / 10); d != want {
					t.Fatalf("slot %d: decile %d = %v, model %v", s, i+1, d, want)
				}
			}
			for _, points := range []int{0, 1, 3, 10, 100} {
				if got, want := h.CDF(points), m.cdf(points); !slices.Equal(got, want) {
					t.Fatalf("slot %d: CDF(%d) = %v, model %v", s, points, got, want)
				}
			}
			for o := range hs {
				want := m.equal(ms[o])
				if h.Equal(hs[o]) != want || hs[o].Equal(h) != want {
					t.Fatalf("Equal(slot %d, slot %d) = %v/%v, model %v", s, o, h.Equal(hs[o]), hs[o].Equal(h), want)
				}
			}
		}
	})
}
