package appserver

import (
	"cmp"
	"fmt"
	"math"
	"slices"
	"sort"
	"testing"
	"testing/quick"
	"time"

	"srlb/internal/des"
	"srlb/internal/rng"
)

func TestSingleRequestFullSpeed(t *testing.T) {
	sim := des.New()
	s := New(sim, "s1", Config{Workers: 4, Cores: 2, Backlog: 8, AbortOnOverflow: true})
	var doneAt time.Duration
	v := s.Offer(100*time.Millisecond, func() { doneAt = sim.Now() })
	if v != Admitted {
		t.Fatalf("verdict = %v", v)
	}
	if s.BusyWorkers() != 1 {
		t.Fatalf("busy = %d", s.BusyWorkers())
	}
	sim.Run()
	if doneAt != 100*time.Millisecond {
		t.Fatalf("done at %v, want 100ms (single request runs at full core speed)", doneAt)
	}
	if s.BusyWorkers() != 0 {
		t.Fatal("worker not released")
	}
}

func TestTwoRequestsTwoCoresNoSlowdown(t *testing.T) {
	sim := des.New()
	s := New(sim, "s1", Default())
	var d1, d2 time.Duration
	s.Offer(100*time.Millisecond, func() { d1 = sim.Now() })
	s.Offer(100*time.Millisecond, func() { d2 = sim.Now() })
	sim.Run()
	if d1 != 100*time.Millisecond || d2 != 100*time.Millisecond {
		t.Fatalf("d1=%v d2=%v, want both 100ms (2 cores)", d1, d2)
	}
}

func TestProcessorSharingSlowdown(t *testing.T) {
	// 4 equal requests on 2 cores: each runs at rate 1/2 → takes 2× demand.
	sim := des.New()
	s := New(sim, "s1", Default())
	var done []time.Duration
	for i := 0; i < 4; i++ {
		s.Offer(100*time.Millisecond, func() { done = append(done, sim.Now()) })
	}
	sim.Run()
	if len(done) != 4 {
		t.Fatalf("completed %d", len(done))
	}
	for _, d := range done {
		if d != 200*time.Millisecond {
			t.Fatalf("done at %v, want 200ms", d)
		}
	}
}

func TestStaggeredArrivalSettling(t *testing.T) {
	// Request A (100ms demand) alone on 2 cores for 50ms (half done),
	// then B and C arrive (3 jobs, rate 2/3 each).
	// A needs 50ms more work at rate 2/3 → 75ms more → done at 125ms.
	sim := des.New()
	s := New(sim, "s1", Default())
	var aDone time.Duration
	s.Offer(100*time.Millisecond, func() { aDone = sim.Now() })
	sim.After(50*time.Millisecond, func() {
		s.Offer(200*time.Millisecond, nil)
		s.Offer(200*time.Millisecond, nil)
	})
	sim.Run()
	want := 125 * time.Millisecond
	if diff := aDone - want; diff < -time.Microsecond || diff > time.Microsecond {
		t.Fatalf("A done at %v, want %v", aDone, want)
	}
}

func TestBacklogAndPromotion(t *testing.T) {
	sim := des.New()
	cfg := Config{Workers: 1, Cores: 1, Backlog: 2, AbortOnOverflow: true}
	s := New(sim, "s1", cfg)
	var order []int
	for i := 0; i < 3; i++ {
		i := i
		if v := s.Offer(10*time.Millisecond, func() { order = append(order, i) }); v != Admitted {
			t.Fatalf("offer %d verdict = %v", i, v)
		}
	}
	if s.BusyWorkers() != 1 || s.QueueLen() != 2 {
		t.Fatalf("busy=%d queue=%d", s.BusyWorkers(), s.QueueLen())
	}
	// Fourth offer overflows.
	if v := s.Offer(10*time.Millisecond, nil); v != Rejected {
		t.Fatalf("overflow verdict = %v, want Rejected", v)
	}
	sim.Run()
	if len(order) != 3 {
		t.Fatalf("completed %d", len(order))
	}
	for i, got := range order {
		if got != i {
			t.Fatalf("FIFO violated: %v", order)
		}
	}
	st := s.Stats()
	if st.Admitted != 3 || st.Rejected != 1 || st.Completed != 3 {
		t.Fatalf("stats = %+v", st)
	}
}

func TestSilentDropWithoutAbort(t *testing.T) {
	sim := des.New()
	cfg := Config{Workers: 1, Cores: 1, Backlog: 0, AbortOnOverflow: false}
	s := New(sim, "s1", cfg)
	s.Offer(time.Millisecond, nil)
	if v := s.Offer(time.Millisecond, nil); v != DroppedSilently {
		t.Fatalf("verdict = %v, want DroppedSilently", v)
	}
	if s.Stats().Dropped != 1 {
		t.Fatal("drop not counted")
	}
}

func TestZeroDemandCompletesImmediately(t *testing.T) {
	sim := des.New()
	s := New(sim, "s1", Default())
	done := false
	s.Offer(0, func() { done = true })
	sim.Run()
	if !done {
		t.Fatal("zero-demand request never completed")
	}
	// The completion timer is clamped to the 1ns clock grid.
	if sim.Now() > time.Nanosecond {
		t.Fatalf("completed at %v, want ≤1ns", sim.Now())
	}
	// Negative demand is clamped.
	done = false
	s.Offer(-time.Second, func() { done = true })
	sim.Run()
	if !done {
		t.Fatal("negative-demand request never completed")
	}
}

func TestScoreboardInterfaceCompliance(t *testing.T) {
	var _ Scoreboard = (*Server)(nil)
	sim := des.New()
	s := New(sim, "s1", Default())
	if s.TotalWorkers() != 32 {
		t.Fatalf("total workers = %d", s.TotalWorkers())
	}
}

func TestVerdictString(t *testing.T) {
	if Admitted.String() != "admitted" || Rejected.String() != "rejected" ||
		DroppedSilently.String() != "dropped" {
		t.Fatal("verdict strings wrong")
	}
	if Verdict(42).String() == "" {
		t.Fatal("unknown verdict should still render")
	}
}

func TestBadConfigPanics(t *testing.T) {
	cases := []Config{
		{Workers: 0, Cores: 1, Backlog: 1},
		{Workers: 1, Cores: 0, Backlog: 1},
		{Workers: 1, Cores: 1, Backlog: -1},
	}
	for _, cfg := range cases {
		func() {
			defer func() {
				if recover() == nil {
					t.Fatalf("config %+v should panic", cfg)
				}
			}()
			New(des.New(), "bad", cfg)
		}()
	}
}

// TestWorkConservation: total CPU granted can never exceed cores × elapsed
// time, and equals total demand when everything completes.
func TestWorkConservation(t *testing.T) {
	f := func(demands []uint16, seed uint64) bool {
		if len(demands) == 0 {
			return true
		}
		if len(demands) > 200 {
			demands = demands[:200]
		}
		sim := des.New()
		s := New(sim, "s1", Default())
		r := rng.New(seed)
		var totalDemand time.Duration
		completed := 0
		for _, d := range demands {
			demand := time.Duration(d) * 10 * time.Microsecond
			at := rng.Uniform(r, 0, 50*time.Millisecond)
			sim.At(at, func() {
				if s.Offer(demand, func() { completed++ }) == Admitted {
					totalDemand += demand
				}
			})
		}
		sim.Run()
		st := s.Stats()
		elapsed := sim.Now()
		if float64(st.CPUTime) > float64(elapsed)*s.Config().Cores*1.0001+1000 {
			return false // more CPU granted than exists
		}
		// All admitted must complete, and CPU granted == total demand.
		if st.Completed != st.Admitted {
			return false
		}
		diff := math.Abs(float64(st.CPUTime - totalDemand))
		return diff < float64(time.Millisecond) // FP slack
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

// TestBusyCountMatchesInService tracks the scoreboard against a reference
// count through a random schedule.
func TestBusyCountMatchesInService(t *testing.T) {
	sim := des.New()
	s := New(sim, "s1", Config{Workers: 4, Cores: 2, Backlog: 100, AbortOnOverflow: true})
	r := rng.New(42)
	inFlight := 0
	maxBusy := 0
	for i := 0; i < 500; i++ {
		at := rng.Uniform(r, 0, time.Second)
		demand := rng.Exp(r, 5*time.Millisecond)
		sim.At(at, func() {
			if s.Offer(demand, func() { inFlight-- }) == Admitted {
				inFlight++
			}
			if b := s.BusyWorkers(); b > maxBusy {
				maxBusy = b
			}
			if s.BusyWorkers() > s.TotalWorkers() {
				t.Fatal("busy exceeds worker pool")
			}
			if s.BusyWorkers()+s.QueueLen() != inFlight {
				t.Fatalf("busy+queue=%d, in-flight=%d", s.BusyWorkers()+s.QueueLen(), inFlight)
			}
		})
	}
	sim.Run()
	if inFlight != 0 {
		t.Fatalf("in-flight = %d at end", inFlight)
	}
	if maxBusy != 4 {
		t.Logf("note: maxBusy=%d (load may not have saturated)", maxBusy)
	}
}

func TestUtilization(t *testing.T) {
	sim := des.New()
	s := New(sim, "s1", Config{Workers: 8, Cores: 2, Backlog: 8, AbortOnOverflow: true})
	// Keep both cores busy for exactly 1s: 4 requests of 500ms CPU each.
	for i := 0; i < 4; i++ {
		s.Offer(500*time.Millisecond, nil)
	}
	sim.Run()
	if sim.Now() != time.Second {
		t.Fatalf("finished at %v, want 1s", sim.Now())
	}
	u := s.Utilization(0)
	if math.Abs(u-1.0) > 0.001 {
		t.Fatalf("utilization = %v, want 1.0", u)
	}
}

// TestThroughputCeiling: a server cannot complete more CPU-work per second
// than it has cores — the foundation of the λ0 calibration.
func TestThroughputCeiling(t *testing.T) {
	sim := des.New()
	s := New(sim, "s1", Default())
	r := rng.New(7)
	completed := 0
	// Offered load: 40 req/s × 100ms = 4 CPU-seconds/sec on 2 cores (2× overload).
	p := rng.NewPoisson(r, 40, 0)
	for {
		at := p.Next()
		if at > 30*time.Second {
			break
		}
		sim.At(at, func() {
			s.Offer(rng.Exp(r, 100*time.Millisecond), func() { completed++ })
		})
	}
	sim.RunUntil(30 * time.Second)
	// Max completions ≈ cores/meanDemand × 30s = 2/0.1×30 = 600.
	if completed > 660 {
		t.Fatalf("completed %d requests in 30s, exceeds 2-core ceiling ≈600", completed)
	}
	if completed < 400 {
		t.Fatalf("completed only %d, server is underperforming", completed)
	}
}

func TestDeterminism(t *testing.T) {
	run := func() []time.Duration {
		sim := des.New()
		s := New(sim, "s1", Default())
		r := rng.New(123)
		var done []time.Duration
		for i := 0; i < 200; i++ {
			at := rng.Uniform(r, 0, time.Second)
			demand := rng.Exp(r, 20*time.Millisecond)
			sim.At(at, func() {
				s.Offer(demand, func() { done = append(done, sim.Now()) })
			})
		}
		sim.Run()
		return done
	}
	a, b := run(), run()
	if len(a) != len(b) {
		t.Fatalf("lengths differ: %d vs %d", len(a), len(b))
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("diverged at %d: %v vs %v", i, a[i], b[i])
		}
	}
}

func BenchmarkOfferComplete(b *testing.B) {
	sim := des.New()
	s := New(sim, "s1", Default())
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		s.Offer(time.Microsecond, nil)
		sim.Run()
	}
}

func BenchmarkSaturatedServer(b *testing.B) {
	sim := des.New()
	s := New(sim, "s1", Default())
	r := rng.New(1)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s.Offer(rng.Exp(r, time.Millisecond), nil)
		if i%16 == 15 {
			sim.RunFor(8 * time.Millisecond)
		}
	}
	sim.Run()
}

// modelServer is the processor-sharing engine in its naive form — the
// in-service set a map walked on every event, the finished requests
// collected and sorted by admission id, a fresh timer for every planned
// completion — kept as the reference Server is driven against.
type modelServer struct {
	cfg Config
	sim *des.Simulator

	inService map[uint64]*request
	backlog   []*request
	nextID    uint64

	lastSettle time.Duration
	nextDone   *des.Timer

	stats Stats
}

func (s *modelServer) Stats() Stats     { return s.stats }
func (s *modelServer) BusyWorkers() int { return len(s.inService) }
func (s *modelServer) QueueLen() int    { return len(s.backlog) }

func (s *modelServer) Offer(demand time.Duration, onDone func()) Verdict {
	if demand < 0 {
		demand = 0
	}
	s.settle()
	req := &request{id: s.nextID, remaining: demand.Seconds(), onDone: onDone}
	s.nextID++
	if len(s.inService) < s.cfg.Workers {
		s.stats.Admitted++
		s.inService[req.id] = req
		s.reschedule()
		return Admitted
	}
	if len(s.backlog) < s.cfg.Backlog {
		s.stats.Admitted++
		s.backlog = append(s.backlog, req)
		return Admitted
	}
	if s.cfg.AbortOnOverflow {
		s.stats.Rejected++
		return Rejected
	}
	s.stats.Dropped++
	return DroppedSilently
}

func (s *modelServer) rate() float64 {
	k := len(s.inService)
	if k == 0 {
		return 0
	}
	if float64(k) <= s.cfg.Cores {
		return 1
	}
	return s.cfg.Cores / float64(k)
}

func (s *modelServer) settle() {
	now := s.sim.Now()
	dt := (now - s.lastSettle).Seconds()
	s.lastSettle = now
	if dt <= 0 || len(s.inService) == 0 {
		return
	}
	granted := s.rate() * dt
	for _, req := range s.inService {
		req.remaining -= granted
		if req.remaining < 0 {
			req.remaining = 0
		}
	}
	s.stats.CPUTime += time.Duration(float64(len(s.inService)) * granted * float64(time.Second))
	s.stats.BusyTime += time.Duration(float64(len(s.inService)) * dt * float64(time.Second))
}

func (s *modelServer) reschedule() {
	if s.nextDone != nil {
		s.sim.Cancel(s.nextDone)
		s.nextDone = nil
	}
	if len(s.inService) == 0 {
		return
	}
	minRemaining := -1.0
	for _, req := range s.inService {
		if minRemaining < 0 || req.remaining < minRemaining {
			minRemaining = req.remaining
		}
	}
	wait := time.Duration(minRemaining / s.rate() * float64(time.Second))
	if wait < 1 {
		wait = 1
	}
	s.nextDone = s.sim.After(wait, s.complete)
}

func (s *modelServer) complete() {
	s.nextDone = nil
	s.settle()
	const eps = 1e-12
	var done []*request
	for id, req := range s.inService {
		if req.remaining <= eps {
			done = append(done, req)
			delete(s.inService, id)
		}
	}
	for len(s.backlog) > 0 && len(s.inService) < s.cfg.Workers {
		req := s.backlog[0]
		s.backlog = s.backlog[1:]
		s.inService[req.id] = req
	}
	s.reschedule()
	sort.Slice(done, func(i, j int) bool { return done[i].id < done[j].id })
	for _, req := range done {
		s.stats.Completed++
		if req.onDone != nil {
			req.onDone()
		}
	}
}

// psServer is what the differential driver needs of either engine.
type psServer interface {
	Offer(demand time.Duration, onDone func()) Verdict
	Stats() Stats
	BusyWorkers() int
	QueueLen() int
}

// psLoad is one differential scenario: a server shape and how hard the
// random Offer / advance-clock sequence pushes it.
type psLoad struct {
	name       string
	cfg        Config
	meanDemand time.Duration
	meanGap    time.Duration // mean clock advance between offers
	overflow   int           // must the backlog overflow: +1 yes, -1 no, 0 either
}

// drivePS runs a seeded random sequence of offers and clock advances
// against the engine build returns and logs everything observable: each
// verdict, each completion with its instant, and after every step the
// scoreboard, the Stats and the simulator's event count. Demands include
// zero and single nanoseconds (which processor sharing turns into
// sub-nanosecond residuals), some offers carry no callback, and some
// callbacks offer again from inside the completion event.
func drivePS(seed uint64, load psLoad, build func(*des.Simulator, Config) psServer, afterStep func(psServer)) ([]string, Stats) {
	sim := des.New()
	s := build(sim, load.cfg)
	r := rng.New(seed)
	var log []string
	logf := func(format string, args ...any) { log = append(log, fmt.Sprintf(format, args...)) }
	demand := func() time.Duration {
		switch r.IntN(8) {
		case 0:
			return 0
		case 1:
			return time.Duration(1 + r.IntN(3))
		default:
			return rng.Exp(r, load.meanDemand)
		}
	}
	for i := 0; i < 3000; i++ {
		switch k := r.IntN(10); {
		case k < 6:
			tag, d, again := i, demand(), demand()
			var onDone func()
			switch r.IntN(8) {
			case 0: // no callback
			case 1: // a callback that re-enters Offer
				onDone = func() {
					logf("done %d at %d", tag, sim.Now())
					logf("offer %d+ → %v", tag, s.Offer(again, func() { logf("done %d+ at %d", tag, sim.Now()) }))
				}
			default:
				onDone = func() { logf("done %d at %d", tag, sim.Now()) }
			}
			logf("offer %d (%d) → %v", tag, d, s.Offer(d, onDone))
		case k < 9:
			sim.RunFor(rng.Exp(r, load.meanGap))
		default:
			sim.RunFor(time.Duration(r.IntN(3))) // 0, 1 or 2 ns
		}
		logf("step %d: now %d busy %d queue %d stats %+v processed %d pending %d",
			i, sim.Now(), s.BusyWorkers(), s.QueueLen(), s.Stats(), sim.Processed(), sim.Pending())
		if afterStep != nil {
			afterStep(s)
		}
	}
	sim.Run()
	logf("end: now %d stats %+v processed %d", sim.Now(), s.Stats(), sim.Processed())
	return log, s.Stats()
}

// TestServerMatchesNaiveModel: under-, at- and over-capacity, with the
// backlog overflowing into RSTs and into silent drops, Server returns the
// model's verdicts, completes the same requests in the same order at the
// same nanosecond, accounts the same Stats (CPUTime and BusyTime are
// float sums, so this is bit-for-bit) and costs the simulator the same
// number of events — with its in-service slice in admission order after
// every step.
func TestServerMatchesNaiveModel(t *testing.T) {
	small := Config{Workers: 4, Cores: 2, Backlog: 6, AbortOnOverflow: true}
	silent := small
	silent.AbortOnOverflow = false
	loads := []psLoad{
		{"under", Default(), 10 * time.Millisecond, 20 * time.Millisecond, -1},
		{"at", small, 10 * time.Millisecond, 8 * time.Millisecond, 0},
		{"over, abort", small, 10 * time.Millisecond, time.Millisecond, +1},
		{"over, silent", silent, 10 * time.Millisecond, time.Millisecond, +1},
		{"over, no backlog", Config{Workers: 3, Cores: 0.5, Backlog: 0}, time.Millisecond, 500 * time.Microsecond, +1},
		{"over, paper's server", Default(), 100 * time.Millisecond, 500 * time.Microsecond, +1},
	}
	model := func(sim *des.Simulator, cfg Config) psServer {
		return &modelServer{cfg: cfg, sim: sim, inService: make(map[uint64]*request)}
	}
	real := func(sim *des.Simulator, cfg Config) psServer { return New(sim, "s", cfg) }
	for _, load := range loads {
		for seed := uint64(1); seed <= 4; seed++ {
			want, st := drivePS(seed, load, model, nil)
			got, _ := drivePS(seed, load, real, func(s psServer) {
				srv := s.(*Server)
				if !slices.IsSortedFunc(srv.inService, func(a, b *request) int { return cmp.Compare(a.id, b.id) }) ||
					len(srv.inService) > srv.cfg.Workers || (len(srv.backlog) > 0 && len(srv.inService) < srv.cfg.Workers) {
					t.Fatalf("%s seed %d: in-service set out of admission order, or a backlog beside a free worker", load.name, seed)
				}
			})
			if over := st.Rejected+st.Dropped > 0; (over && load.overflow < 0) || (!over && load.overflow > 0) {
				t.Fatalf("%s seed %d: scenario misses its regime: %+v", load.name, seed, st)
			}
			for i := range want {
				if i >= len(got) || got[i] != want[i] {
					t.Fatalf("%s seed %d diverges at log line %d:\n model: %s\n server: %s",
						load.name, seed, i, want[i], append(got, "<end>")[min(i, len(got))])
				}
			}
			if len(got) != len(want) {
				t.Fatalf("%s seed %d: server logged %d lines, model %d", load.name, seed, len(got), len(want))
			}
		}
	}
}

// TestOfferToCompletionAllocatesNothing: on a warm, busy server an
// admission and the completion event it leads to cost no heap object —
// the request is recycled, and there is no timer, no bound method value
// and no list of finished requests to build. An offer that overflows
// gives its request back as well.
func TestOfferToCompletionAllocatesNothing(t *testing.T) {
	sim := des.New()
	s := New(sim, "s1", Default())
	for i := 0; i < 20; i++ {
		s.Offer(1000*time.Hour, nil)
	}
	done := 0
	onDone := func() { done++ }
	serve := func() {
		if s.Offer(time.Microsecond, onDone) != Admitted || !sim.Step() {
			t.Fatal("offer not served")
		}
	}
	serve() // the request, the scratch slice and the timer come with the first completion
	if n := testing.AllocsPerRun(100, serve); n != 0 {
		t.Fatalf("Offer → completion: %v allocs, want 0", n)
	}
	if done != 102 || s.BusyWorkers() != 20 {
		t.Fatalf("done = %d, busy = %d", done, s.BusyWorkers())
	}

	full := New(sim, "full", Config{Workers: 1, Cores: 1, AbortOnOverflow: true})
	full.Offer(1000*time.Hour, nil)
	refuse := func() {
		if full.Offer(time.Microsecond, onDone) != Rejected {
			t.Fatal("offer to a full server not rejected")
		}
	}
	refuse()
	if n := testing.AllocsPerRun(100, refuse); n != 0 {
		t.Fatalf("rejected Offer: %v allocs, want 0", n)
	}
}

// TestSaturatedBacklogStaysInPlace: a server whose backlog never drains
// keeps it at the front of one array. Popping by re-slicing from the
// front walked the backlog through its array, and append re-allocated it
// every cap admissions.
func TestSaturatedBacklogStaysInPlace(t *testing.T) {
	sim := des.New()
	s := New(sim, "s1", Config{Workers: 1, Cores: 1, Backlog: 4, AbortOnOverflow: true})
	for i := 0; i < 5; i++ {
		s.Offer(time.Millisecond, nil)
	}
	base, size := &s.backlog[0], cap(s.backlog)
	cycle := func() {
		if !sim.Step() || s.Offer(time.Millisecond, nil) != Admitted {
			t.Fatal("saturated server did not complete one and admit one")
		}
	}
	if n := testing.AllocsPerRun(20*size, cycle); n != 0 {
		t.Fatalf("completion + admission on a full backlog: %v allocs", n)
	}
	if s.QueueLen() != 4 || &s.backlog[0] != base || cap(s.backlog) != size {
		t.Fatalf("backlog moved: len %d, cap %d (was %d)", s.QueueLen(), cap(s.backlog), size)
	}
	for i := 1; i < len(s.backlog); i++ {
		if s.backlog[i-1].id+1 != s.backlog[i].id {
			t.Fatalf("backlog out of admission order at %d", i)
		}
	}
}
