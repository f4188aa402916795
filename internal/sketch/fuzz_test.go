package sketch

import (
	"encoding/binary"
	"math"
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
