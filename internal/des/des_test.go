package des

import (
	"fmt"
	"math/rand/v2"
	"slices"
	"testing"
	"time"
)

func TestZeroValueReady(t *testing.T) {
	var s Simulator
	fired := false
	s.After(time.Second, func() { fired = true })
	s.Run()
	if !fired {
		t.Fatal("event did not fire")
	}
	if s.Now() != time.Second {
		t.Fatalf("Now() = %v, want 1s", s.Now())
	}
}

func TestEventOrdering(t *testing.T) {
	s := New()
	var order []int
	s.At(3*time.Second, func() { order = append(order, 3) })
	s.At(1*time.Second, func() { order = append(order, 1) })
	s.At(2*time.Second, func() { order = append(order, 2) })
	s.Run()
	want := []int{1, 2, 3}
	for i, v := range want {
		if order[i] != v {
			t.Fatalf("order = %v, want %v", order, want)
		}
	}
}

func TestTieBreakBySchedulingOrder(t *testing.T) {
	s := New()
	var order []int
	for i := 0; i < 10; i++ {
		i := i
		s.At(time.Second, func() { order = append(order, i) })
	}
	s.Run()
	for i := 0; i < 10; i++ {
		if order[i] != i {
			t.Fatalf("ties not FIFO: %v", order)
		}
	}
}

func TestNestedScheduling(t *testing.T) {
	s := New()
	count := 0
	var recur func()
	recur = func() {
		count++
		if count < 5 {
			s.After(time.Millisecond, recur)
		}
	}
	s.After(0, recur)
	s.Run()
	if count != 5 {
		t.Fatalf("count = %d, want 5", count)
	}
	if s.Now() != 4*time.Millisecond {
		t.Fatalf("Now() = %v, want 4ms", s.Now())
	}
}

func TestCancel(t *testing.T) {
	s := New()
	fired := false
	tm := s.After(time.Second, func() { fired = true })
	if !tm.Pending() {
		t.Fatal("timer should be pending")
	}
	if !s.Cancel(tm) {
		t.Fatal("Cancel reported false on pending timer")
	}
	if tm.Pending() {
		t.Fatal("timer still pending after cancel")
	}
	if s.Cancel(tm) {
		t.Fatal("second Cancel should report false")
	}
	s.Run()
	if fired {
		t.Fatal("cancelled event fired")
	}
}

func TestCancelNil(t *testing.T) {
	s := New()
	if s.Cancel(nil) {
		t.Fatal("Cancel(nil) should report false")
	}
	var tm *Timer
	if tm.Pending() {
		t.Fatal("nil timer should not be pending")
	}
}

func TestReschedule(t *testing.T) {
	s := New()
	var at time.Duration
	tm := s.After(time.Second, func() { at = s.Now() })
	if !s.Reschedule(tm, 5*time.Second) {
		t.Fatal("Reschedule failed")
	}
	s.Run()
	if at != 5*time.Second {
		t.Fatalf("fired at %v, want 5s", at)
	}
	if !s.Reschedule(tm, 6*time.Second) || !tm.Pending() {
		t.Fatal("Reschedule of fired timer should arm it again")
	}
	s.Run()
	if at != 6*time.Second || s.Processed() != 2 {
		t.Fatalf("re-armed timer fired at %v after %d events, want 6s after 2", at, s.Processed())
	}
}

func TestRescheduleOrdering(t *testing.T) {
	s := New()
	var order []string
	a := s.At(1*time.Second, func() { order = append(order, "a") })
	s.At(2*time.Second, func() { order = append(order, "b") })
	s.Reschedule(a, 3*time.Second)
	s.Run()
	if len(order) != 2 || order[0] != "b" || order[1] != "a" {
		t.Fatalf("order = %v, want [b a]", order)
	}
}

func TestRunUntil(t *testing.T) {
	s := New()
	fired := 0
	s.At(1*time.Second, func() { fired++ })
	s.At(2*time.Second, func() { fired++ })
	s.At(3*time.Second, func() { fired++ })
	s.RunUntil(2 * time.Second)
	if fired != 2 {
		t.Fatalf("fired = %d, want 2", fired)
	}
	if s.Now() != 2*time.Second {
		t.Fatalf("Now() = %v, want 2s", s.Now())
	}
	if s.Pending() != 1 {
		t.Fatalf("Pending() = %d, want 1", s.Pending())
	}
	s.RunFor(time.Second)
	if fired != 3 {
		t.Fatalf("fired = %d, want 3", fired)
	}
}

func TestRunUntilLimit(t *testing.T) {
	s := New()
	fired := 0
	for i := 1; i <= 5; i++ {
		s.At(time.Duration(i)*time.Second, func() { fired++ })
	}
	if !s.RunUntilLimit(4*time.Second, 2) {
		t.Fatal("events ≤ deadline should remain after 2 steps")
	}
	if fired != 2 {
		t.Fatalf("fired = %d, want 2", fired)
	}
	if s.Now() == 4*time.Second {
		t.Fatal("clock must not jump to deadline while events remain")
	}
	if s.RunUntilLimit(4*time.Second, 100) {
		t.Fatal("no events ≤ deadline should remain")
	}
	if fired != 4 {
		t.Fatalf("fired = %d, want 4", fired)
	}
	if s.Now() != 4*time.Second {
		t.Fatalf("Now() = %v, want 4s", s.Now())
	}
	if s.Pending() != 1 {
		t.Fatalf("Pending() = %d, want 1", s.Pending())
	}
}

func TestRunUntilAdvancesClockWithoutEvents(t *testing.T) {
	s := New()
	s.RunUntil(10 * time.Second)
	if s.Now() != 10*time.Second {
		t.Fatalf("Now() = %v, want 10s", s.Now())
	}
}

func TestSchedulePastPanics(t *testing.T) {
	s := New()
	s.At(time.Second, func() {})
	s.Run()
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic scheduling into the past")
		}
	}()
	s.At(0, func() {})
}

func TestNilFuncPanics(t *testing.T) {
	s := New()
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic on nil fn")
		}
	}()
	s.At(time.Second, nil)
}

func TestNegativeAfterClampsToNow(t *testing.T) {
	s := New()
	fired := false
	s.After(-time.Second, func() { fired = true })
	s.Step()
	if !fired || s.Now() != 0 {
		t.Fatalf("fired=%v now=%v, want true/0", fired, s.Now())
	}
}

func TestProcessedCount(t *testing.T) {
	s := New()
	for i := 0; i < 7; i++ {
		s.After(time.Duration(i)*time.Millisecond, func() {})
	}
	s.Run()
	if s.Processed() != 7 {
		t.Fatalf("Processed() = %d, want 7", s.Processed())
	}
}

// TestDeterministicUnderRandomLoad schedules a large randomized workload
// twice with the same seed and verifies identical execution traces.
func TestDeterministicUnderRandomLoad(t *testing.T) {
	run := func(seed uint64) []time.Duration {
		rng := rand.New(rand.NewPCG(seed, 0))
		s := New()
		var trace []time.Duration
		var spawn func(depth int)
		spawn = func(depth int) {
			trace = append(trace, s.Now())
			if depth < 3 {
				n := rng.IntN(3)
				for i := 0; i < n; i++ {
					s.After(time.Duration(rng.IntN(1000))*time.Microsecond, func() { spawn(depth + 1) })
				}
			}
		}
		for i := 0; i < 100; i++ {
			s.After(time.Duration(rng.IntN(100_000))*time.Microsecond, func() { spawn(0) })
		}
		s.Run()
		return trace
	}
	a, b := run(42), run(42)
	if len(a) != len(b) {
		t.Fatalf("trace lengths differ: %d vs %d", len(a), len(b))
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("traces diverge at %d: %v vs %v", i, a[i], b[i])
		}
	}
}

func BenchmarkScheduleAndRun(b *testing.B) {
	s := New()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		s.After(time.Microsecond, func() {})
		s.Step()
	}
}

// TestScheduleOrdering: handle-free Schedule events interleave with
// At/After handles in the same (at, seq) total order.
func TestScheduleOrdering(t *testing.T) {
	s := New()
	var order []int
	s.Schedule(2*time.Second, func() { order = append(order, 2) })
	s.At(1*time.Second, func() { order = append(order, 1) })
	s.ScheduleAfter(3*time.Second, func() { order = append(order, 3) })
	s.Schedule(1*time.Second, func() { order = append(order, 10) }) // tie with At: fires second
	s.Run()
	want := []int{1, 10, 2, 3}
	for i, v := range want {
		if order[i] != v {
			t.Fatalf("order = %v, want %v", order, want)
		}
	}
}

// TestScheduleRecyclesTimers: after a warm-up, the fire-and-forget path
// must not allocate a timer per event.
func TestScheduleRecyclesTimers(t *testing.T) {
	s := New()
	for i := 0; i < 64; i++ {
		s.ScheduleAfter(time.Microsecond, func() {})
	}
	s.Run()
	allocs := testing.AllocsPerRun(1000, func() {
		s.ScheduleAfter(time.Microsecond, func() {})
		s.Step()
	})
	if allocs > 0.1 {
		t.Errorf("Schedule+Step allocates %.2f objects per event, want 0", allocs)
	}
}

// TestScheduleNegativeAfterClampsToNow mirrors the After clamp.
func TestScheduleNegativeAfterClampsToNow(t *testing.T) {
	s := New()
	fired := false
	s.ScheduleAfter(-time.Second, func() { fired = true })
	s.Step()
	if !fired || s.Now() != 0 {
		t.Fatalf("fired=%v now=%v, want true/0", fired, s.Now())
	}
}

// TestSchedulePastPanicsToo: the past-scheduling guard covers the
// handle-free path as well.
func TestSchedulePastPanicsToo(t *testing.T) {
	s := New()
	s.At(time.Second, func() {})
	s.Run()
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic scheduling into the past")
		}
	}()
	s.Schedule(0, func() {})
}

// TestCalendarResizeChurn drives the queue through growth and shrink
// cycles with mixed time scales (µs deliveries, ms services, a far
// horizon guard) and verifies the dequeue order stays globally sorted.
func TestCalendarResizeChurn(t *testing.T) {
	rng := rand.New(rand.NewPCG(7, 0))
	s := New()
	var fired []time.Duration
	record := func() { fired = append(fired, s.Now()) }
	s.At(time.Hour, record) // far-future outlier the width estimate must survive
	var handles []*Timer
	for i := 0; i < 5000; i++ {
		switch rng.IntN(3) {
		case 0:
			s.Schedule(s.Now()+time.Duration(rng.IntN(100))*time.Microsecond, record)
		case 1:
			handles = append(handles, s.At(s.Now()+time.Duration(rng.IntN(50))*time.Millisecond, record))
		case 2:
			if len(handles) > 0 && rng.IntN(2) == 0 {
				h := handles[rng.IntN(len(handles))]
				if h.Pending() {
					if rng.IntN(2) == 0 {
						s.Cancel(h)
					} else {
						s.Reschedule(h, s.Now()+time.Duration(rng.IntN(10))*time.Millisecond)
					}
				}
			}
		}
		if rng.IntN(4) == 0 {
			s.Step()
		}
	}
	s.Run()
	for i := 1; i < len(fired); i++ {
		if fired[i] < fired[i-1] {
			t.Fatalf("out-of-order fire at %d: %v after %v", i, fired[i], fired[i-1])
		}
	}
	if fired[len(fired)-1] != time.Hour {
		t.Fatalf("horizon guard fired at %v, want 1h", fired[len(fired)-1])
	}
	if s.Pending() != 0 {
		t.Fatalf("Pending() = %d after drain", s.Pending())
	}
}

func BenchmarkScheduleNoHandle(b *testing.B) {
	s := New()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		s.ScheduleAfter(time.Microsecond, func() {})
		s.Step()
	}
}

// BenchmarkCalendarMixed models the hot loop's population: a few
// thousand co-pending events at mixed time scales.
func BenchmarkCalendarMixed(b *testing.B) {
	rng := rand.New(rand.NewPCG(1, 0))
	s := New()
	for i := 0; i < 4096; i++ {
		s.ScheduleAfter(time.Duration(rng.IntN(200_000))*time.Microsecond, func() {})
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s.ScheduleAfter(time.Duration(rng.IntN(200_000))*time.Microsecond, func() {})
		s.Step()
	}
}

// moveWorkload pops a shuffled workload of 200 handle timers, between
// bursts of events cancelling random ones and moving random ones —
// pending, fired or cancelled — through move, and returns the firing
// order. Times sit on a coarse grid so that many events share an
// instant, and after half the moves a pooled event is scheduled at the
// moved timer's new instant: whatever move does to the scheduling
// sequence shows in the log.
func moveWorkload(seed uint64, move func(s *Simulator, t *Timer, at time.Duration, fn func()) *Timer) []string {
	const n, grid = 200, 100 * time.Microsecond
	r := rand.New(rand.NewPCG(seed, 0))
	s := New()
	var log []string
	timers, fns := make([]*Timer, n), make([]func(), n)
	for i := range timers {
		fns[i] = func() { log = append(log, fmt.Sprintf("%d@%v", i, s.Now())) }
		timers[i] = s.At(time.Duration(r.IntN(1000))*grid, fns[i])
	}
	for round := 0; round < 400; round++ {
		s.RunFor(time.Duration(r.IntN(20)) * grid)
		for k := 0; k < 5; k++ {
			i := r.IntN(n)
			if r.IntN(4) == 0 {
				s.Cancel(timers[i])
				continue
			}
			at := s.Now() + time.Duration(r.IntN(50))*grid
			timers[i] = move(s, timers[i], at, fns[i])
			if r.IntN(2) == 0 {
				s.Schedule(at, func() { log = append(log, fmt.Sprintf("after %d@%v", i, s.Now())) })
			}
		}
	}
	s.Run()
	return append(log, fmt.Sprintf("processed %d", s.Processed()))
}

// TestRescheduleMatchesCancelAfter: on pending, fired and cancelled
// timers alike Reschedule is Cancel followed by At with the same
// callback — same firing order, same-instant ties included, and the same
// number of events.
func TestRescheduleMatchesCancelAfter(t *testing.T) {
	for seed := uint64(1); seed <= 5; seed++ {
		want := moveWorkload(seed, func(s *Simulator, tm *Timer, at time.Duration, fn func()) *Timer {
			s.Cancel(tm)
			return s.At(at, fn)
		})
		got := moveWorkload(seed, func(s *Simulator, tm *Timer, at time.Duration, _ func()) *Timer {
			if !s.Reschedule(tm, at) {
				t.Fatalf("seed %d: Reschedule refused a timer", seed)
			}
			return tm
		})
		if !slices.Equal(got, want) {
			t.Fatalf("seed %d: firing order differs\n Cancel+At:  %v\n Reschedule: %v", seed, want, got)
		}
	}
}

// TestRescheduleFromOwnCallback: a fired timer re-armed from inside its
// own callback fires once more, at the new time, after an event that was
// already scheduled for that instant.
func TestRescheduleFromOwnCallback(t *testing.T) {
	s := New()
	var order []string
	var tm *Timer
	tm = s.At(time.Second, func() {
		order = append(order, fmt.Sprintf("timer@%v", s.Now()))
		if s.Now() == time.Second && !s.Reschedule(tm, 3*time.Second) {
			t.Fatal("Reschedule refused the firing timer")
		}
	})
	s.At(3*time.Second, func() { order = append(order, "earlier@3s") })
	s.Run()
	if want := []string{"timer@1s", "earlier@3s", "timer@3s"}; !slices.Equal(order, want) {
		t.Fatalf("order = %v, want %v", order, want)
	}
	if s.Processed() != 3 || tm.Pending() {
		t.Fatalf("processed %d events, pending %v", s.Processed(), tm.Pending())
	}
}

// TestRescheduleRefusals: only a timer that came from At can be armed.
func TestRescheduleRefusals(t *testing.T) {
	s := New()
	s.Schedule(time.Second, func() {})
	pooled := s.peek()
	for name, tm := range map[string]*Timer{"nil": nil, "zero": {}, "pooled, pending": pooled} {
		if s.Reschedule(tm, 2*time.Second) {
			t.Fatalf("Reschedule accepted a %s timer", name)
		}
	}
	s.Run()
	if s.Reschedule(pooled, 2*time.Second) || s.Pending() != 0 {
		t.Fatal("Reschedule accepted a pooled timer from the free list")
	}
}
