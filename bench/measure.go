package main

import (
	"math"
	"runtime"
	"runtime/metrics"
	"sort"
	"time"
)

// pass accumulates one timed pass over a workload: whole rounds run
// back to back until the clock passes the requested window, each round
// contributing its ops, its wall time and its per-batch costs.
type pass struct {
	ops    int64
	failed int64
	wall   time.Duration
	// batchNS holds one sample per batch: batch wall time / batch ops.
	batchNS []float64
	// events and pkts are the DES events processed and the packets
	// handed to LoadBalancer.Handle during the pass.
	events uint64
	pkts   uint64

	mem memDelta
	// heapLive is HeapAlloc after a forced GC at the end of the pass,
	// with the workload's state still referenced.
	heapLive uint64
}

func (p *pass) nsPerOp() float64 { return float64(p.wall) / float64(p.ops) }

// memDelta is what the Go runtime reports across a pass.
type memDelta struct {
	mallocs, bytes uint64
	gcCycles       uint32
	gcCPU, cpu     float64 // seconds
}

type memMark struct {
	ms      runtime.MemStats
	samples [3]metrics.Sample
}

const (
	gcCPUMetric    = "/cpu/classes/gc/total:cpu-seconds"
	totalCPUMetric = "/cpu/classes/total:cpu-seconds"
	idleCPUMetric  = "/cpu/classes/idle:cpu-seconds"
	heapObjMetric  = "/memory/classes/heap/objects:bytes"
)

func markMem() *memMark {
	m := &memMark{}
	m.samples[0].Name = gcCPUMetric
	m.samples[1].Name = totalCPUMetric
	m.samples[2].Name = idleCPUMetric
	runtime.ReadMemStats(&m.ms)
	metrics.Read(m.samples[:])
	return m
}

// since returns the runtime's deltas from the mark to now.
func (m *memMark) since() memDelta {
	now := markMem()
	f := func(i int) float64 { return now.samples[i].Value.Float64() - m.samples[i].Value.Float64() }
	return memDelta{
		mallocs:  now.ms.Mallocs - m.ms.Mallocs,
		bytes:    now.ms.TotalAlloc - m.ms.TotalAlloc,
		gcCycles: now.ms.NumGC - m.ms.NumGC,
		gcCPU:    f(0),
		cpu:      f(1) - f(2),
	}
}

// liveHeap forces a collection and returns the bytes still reachable.
func liveHeap() uint64 {
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return ms.HeapAlloc
}

// heapObjects reads the bytes held by heap objects (live or not yet
// swept) without stopping the world — the traced pass polls it at batch
// boundaries for runtime.heap_peak_mb.
func heapObjects() uint64 {
	s := []metrics.Sample{{Name: heapObjMetric}}
	metrics.Read(s)
	return s[0].Value.Uint64()
}

// quantile returns the q-quantile of xs by linear interpolation between
// order statistics (xs need not be sorted; it is not modified).
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	pos := q * float64(len(s)-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	return s[lo] + (s[hi]-s[lo])*(pos-float64(lo))
}

func median(xs []float64) float64 { return quantile(xs, 0.5) }

// deriveSeed maps (seed, stream) to an independent 64-bit seed
// (splitmix64 finalizer), so every round, rig and input stream of a run
// draws from its own generator while the run as a whole stays a pure
// function of -seed.
func deriveSeed(seed, stream uint64) uint64 {
	z := seed + 0x9e3779b97f4a7c15*(stream+1)
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

// timerCost is the cost of one time.Now() call pair as used around an
// isolated operation, measured once per process and subtracted from
// every individually timed call.
var timerCost = func() time.Duration {
	best := time.Duration(math.MaxInt64)
	for round := 0; round < 5; round++ {
		const n = 20000
		t0 := time.Now()
		for i := 0; i < n; i++ {
			_ = time.Now()
		}
		if d := time.Since(t0) / n; d < best {
			best = d
		}
	}
	return best
}()
