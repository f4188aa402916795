// Package des provides a deterministic discrete-event simulation kernel.
//
// The kernel is a calendar-queue event scheduler (Brown 1988) with a
// virtual clock: pending events hash into time buckets by arrival
// instant, each bucket an intrusive sorted list, so enqueue and dequeue
// are O(1) amortized instead of the O(log n) of a binary heap. The
// bucket count and width adapt to the pending population as it grows
// and shrinks. Events scheduled for the same instant fire in scheduling
// order, which — together with seeded randomness everywhere else —
// makes whole-cluster simulations bit-for-bit reproducible.
//
// Two scheduling flavors exist: At/After return a *Timer handle that
// can be cancelled or rescheduled — and re-armed through Reschedule
// after it fired or was cancelled, so a component with one recurring
// event (a server's next completion) keeps one Timer for life — while
// Schedule/ScheduleAfter return nothing and recycle the timer's
// allocation through an internal free list once it fires — the
// zero-garbage path for fire-and-forget events (packet deliveries,
// arrival streams), which dominate the hot loop.
//
// The kernel is intentionally single-threaded: simulated components are
// plain state machines invoked from the event loop, which keeps them free
// of locks and makes 24-hour cluster runs complete in seconds.
package des

import (
	"fmt"
	"sort"
	"time"
)

// Timer is a handle to a scheduled event. It can be cancelled while
// pending and rescheduled at any time; it keeps its callback for life.
type Timer struct {
	at         time.Duration
	seq        uint64
	fn         func() // cleared on firing only for pooled timers
	prev, next *Timer // intrusive bucket list; nil once fired/cancelled
	pooled     bool   // allocated by Schedule: recycle after firing
}

// At reports the virtual time the timer is (or was) scheduled to fire.
func (t *Timer) At() time.Duration { return t.at }

// Pending reports whether the timer is still scheduled.
func (t *Timer) Pending() bool { return t != nil && t.next != nil }

// before is the queue's total order: time, then scheduling sequence.
func (t *Timer) before(u *Timer) bool {
	if t.at != u.at {
		return t.at < u.at
	}
	return t.seq < u.seq
}

// Calendar sizing bounds. The bucket count doubles while the pending
// population exceeds two events per bucket and halves when it drops
// below a quarter event per bucket; width re-estimates on every resize.
const (
	minBuckets  = 16
	maxBuckets  = 1 << 16
	widthSample = 1024
)

// Simulator is a discrete-event scheduler. The zero value is ready to use
// with the clock at 0.
type Simulator struct {
	buckets []Timer // sentinels of circular doubly-linked lists
	width   time.Duration
	count   int

	// cur/curTop track the dequeue cursor: curTop is the top of bucket
	// cur's window in the year currently being scanned. Invariant: every
	// pending event fires at or after curTop−width, so a forward scan
	// from cur meets the earliest event first.
	cur    int
	curTop time.Duration
	peeked *Timer // cached minimum; nil when unknown

	now       time.Duration
	seq       uint64
	processed uint64

	free *Timer // freelist of pooled timers, linked through next
}

// New returns a Simulator with the clock at zero.
func New() *Simulator { return &Simulator{} }

// Now returns the current virtual time.
func (s *Simulator) Now() time.Duration { return s.now }

// Processed returns the number of events executed so far.
func (s *Simulator) Processed() uint64 { return s.processed }

// Pending returns the number of events currently scheduled.
func (s *Simulator) Pending() int { return s.count }

// topOf returns the upper edge of the bucket window containing at.
func (s *Simulator) topOf(at time.Duration) time.Duration {
	return (at/s.width + 1) * s.width
}

// bucketOf maps an instant to its bucket index.
func (s *Simulator) bucketOf(at time.Duration) int {
	return int((uint64(at) / uint64(s.width)) % uint64(len(s.buckets)))
}

// init sets up the initial (empty) calendar.
func (s *Simulator) init() {
	s.width = 64 * time.Microsecond // near LAN latency; resizes adapt
	s.buckets = makeBuckets(minBuckets)
}

func makeBuckets(n int) []Timer {
	b := make([]Timer, n)
	for i := range b {
		b[i].prev, b[i].next = &b[i], &b[i]
	}
	return b
}

// insert links t into its bucket, keeping the bucket sorted by
// (at, seq). Most events land at the tail of their bucket (time flows
// forward), so the scan starts there.
func (s *Simulator) insert(t *Timer) {
	if s.buckets == nil {
		s.init()
	}
	if s.count >= 2*len(s.buckets) && len(s.buckets) < maxBuckets {
		s.resize(2 * len(s.buckets))
	}
	sent := &s.buckets[s.bucketOf(t.at)]
	p := sent.prev
	for p != sent && t.before(p) {
		p = p.prev
	}
	t.prev, t.next = p, p.next
	p.next.prev = t
	p.next = t
	s.count++
	if s.count == 1 || t.at < s.curTop-s.width {
		// First event, or an event before the cursor's window: realign so
		// the scan invariant (nothing fires before curTop−width) holds.
		s.cur = s.bucketOf(t.at)
		s.curTop = s.topOf(t.at)
		if s.count == 1 {
			s.peeked = t
		}
	}
	if s.peeked != nil && t.before(s.peeked) {
		s.peeked = t
	}
}

// remove unlinks a queued timer.
func (s *Simulator) remove(t *Timer) {
	t.prev.next = t.next
	t.next.prev = t.prev
	t.prev, t.next = nil, nil
	s.count--
	if s.peeked == t {
		s.peeked = nil
	}
	if s.count < len(s.buckets)/4 && len(s.buckets) > minBuckets {
		s.resize(len(s.buckets) / 2)
	}
}

// resize rebuilds the calendar with n buckets and a width re-estimated
// from the pending population, relinking every event. O(count), but
// resizes are geometric so the amortized cost per event is constant.
func (s *Simulator) resize(n int) {
	var all *Timer // collect through next pointers
	var sample []time.Duration
	for i := range s.buckets {
		sent := &s.buckets[i]
		for t := sent.next; t != sent; {
			nx := t.next
			t.prev = nil
			t.next = all
			all = t
			if len(sample) < widthSample {
				sample = append(sample, t.at)
			}
			t = nx
		}
	}
	if w := estimateWidth(sample); w > 0 {
		s.width = w
	}
	s.buckets = makeBuckets(n)
	s.count = 0
	s.peeked = nil
	for t := all; t != nil; {
		nx := t.next
		t.next = nil
		s.insert(t)
		t = nx
	}
	// Realign the cursor by direct search so the scan invariant holds.
	if min := s.direct(); min != nil {
		s.cur = s.bucketOf(min.at)
		s.curTop = s.topOf(min.at)
		s.peeked = min
	}
}

// estimateWidth picks a bucket width from a sample of pending event
// times: twice the median of the non-zero gaps between time-adjacent
// samples. The median keeps one far-future outlier (horizon guards,
// idle timeouts) from stretching the width and collapsing the dense
// near-term population into a single bucket. Returns 0 when the sample
// carries no signal (fewer than two distinct instants).
func estimateWidth(sample []time.Duration) time.Duration {
	if len(sample) < 2 {
		return 0
	}
	sort.Slice(sample, func(i, j int) bool { return sample[i] < sample[j] })
	gaps := sample[:0]
	for i := 1; i < len(sample); i++ {
		if g := sample[i] - sample[i-1]; g > 0 {
			gaps = append(gaps, g)
		}
	}
	if len(gaps) == 0 {
		return 0
	}
	sort.Slice(gaps, func(i, j int) bool { return gaps[i] < gaps[j] })
	w := 2 * gaps[len(gaps)/2]
	if w < 1 {
		w = 1
	}
	return w
}

// direct finds the global minimum by inspecting every bucket head —
// the fallback when a year's scan comes up empty (sparse queues, or
// every pending event more than a year ahead).
func (s *Simulator) direct() *Timer {
	var best *Timer
	for i := range s.buckets {
		sent := &s.buckets[i]
		if first := sent.next; first != sent {
			if best == nil || first.before(best) {
				best = first
			}
		}
	}
	return best
}

// peek returns the earliest pending timer without dequeuing it, or nil.
func (s *Simulator) peek() *Timer {
	if s.peeked != nil {
		return s.peeked
	}
	if s.count == 0 {
		return nil
	}
	b, top := s.cur, s.curTop
	for i := 0; i < len(s.buckets); i++ {
		sent := &s.buckets[b]
		if first := sent.next; first != sent && first.at < top {
			s.cur, s.curTop = b, top
			s.peeked = first
			return first
		}
		b++
		if b == len(s.buckets) {
			b = 0
		}
		top += s.width
	}
	best := s.direct()
	s.cur = s.bucketOf(best.at)
	s.curTop = s.topOf(best.at)
	s.peeked = best
	return best
}

// At schedules fn at absolute virtual time t and returns a cancellable
// handle. Scheduling in the past (t < Now) panics: it is always a logic
// error in the caller.
func (s *Simulator) At(t time.Duration, fn func()) *Timer {
	s.check(t, fn)
	s.seq++
	tm := &Timer{at: t, seq: s.seq, fn: fn}
	s.insert(tm)
	return tm
}

// After schedules fn after delay d (d < 0 is treated as 0).
func (s *Simulator) After(d time.Duration, fn func()) *Timer {
	if d < 0 {
		d = 0
	}
	return s.At(s.now+d, fn)
}

// Schedule is At without a handle: the event cannot be cancelled or
// rescheduled, and in exchange its timer allocation is recycled through
// the simulator's free list once it fires. Use it for fire-and-forget
// events on the hot path.
func (s *Simulator) Schedule(t time.Duration, fn func()) {
	s.check(t, fn)
	tm := s.free
	if tm != nil {
		s.free = tm.next
		tm.next = nil
	} else {
		tm = &Timer{pooled: true}
	}
	s.seq++
	tm.at, tm.seq, tm.fn = t, s.seq, fn
	s.insert(tm)
}

// ScheduleAfter is After without a handle (d < 0 is treated as 0).
func (s *Simulator) ScheduleAfter(d time.Duration, fn func()) {
	if d < 0 {
		d = 0
	}
	s.Schedule(s.now+d, fn)
}

func (s *Simulator) check(t time.Duration, fn func()) {
	if t < s.now {
		panic(fmt.Sprintf("des: scheduling event at %v before now %v", t, s.now))
	}
	if fn == nil {
		panic("des: nil event function")
	}
}

// Cancel removes a pending timer. Cancelling a fired, cancelled or nil
// timer is a no-op and reports false.
func (s *Simulator) Cancel(t *Timer) bool {
	if t == nil || t.next == nil {
		return false
	}
	s.remove(t)
	return true
}

// Reschedule makes a timer obtained from At or After fire at absolute
// time at, keeping its callback: a pending timer is moved, one that has
// fired (its own callback may be the caller) or was cancelled is armed
// again. Either way it is exactly Cancel followed by At — one scheduling
// sequence number is consumed, so the timer orders after everything
// already scheduled for the same instant — minus the allocation. A nil
// timer, or one that never came from At, is refused with false.
func (s *Simulator) Reschedule(t *Timer, at time.Duration) bool {
	if t == nil || t.pooled || t.fn == nil {
		return false
	}
	if at < s.now {
		panic(fmt.Sprintf("des: rescheduling event at %v before now %v", at, s.now))
	}
	if t.next != nil {
		s.remove(t)
	}
	t.at = at
	s.seq++
	t.seq = s.seq
	s.insert(t)
	return true
}

// Step executes the next event, advancing the clock. It reports false when
// no events remain.
func (s *Simulator) Step() bool {
	t := s.peek()
	if t == nil {
		return false
	}
	s.remove(t)
	s.now = t.at
	fn := t.fn
	if t.pooled {
		t.fn = nil
		t.next = s.free
		s.free = t
	}
	s.processed++
	fn()
	return true
}

// Run executes events until the queue drains.
func (s *Simulator) Run() {
	for s.Step() {
	}
}

// RunUntil executes events with timestamps ≤ deadline, then advances the
// clock to the deadline (even if events remain beyond it).
func (s *Simulator) RunUntil(deadline time.Duration) {
	for t := s.peek(); t != nil && t.at <= deadline; t = s.peek() {
		s.Step()
	}
	if s.now < deadline {
		s.now = deadline
	}
}

// RunUntilLimit executes at most limit events with timestamps ≤ deadline
// and reports whether any such events remain. Only once none remain is the
// clock advanced to the deadline, so interleaving RunUntilLimit calls with
// other work (e.g. cancellation polls) is equivalent to one RunUntil.
func (s *Simulator) RunUntilLimit(deadline time.Duration, limit int) bool {
	for limit > 0 {
		t := s.peek()
		if t == nil || t.at > deadline {
			break
		}
		s.Step()
		limit--
	}
	if t := s.peek(); t != nil && t.at <= deadline {
		return true
	}
	if s.now < deadline {
		s.now = deadline
	}
	return false
}

// RunFor executes events for a further d of virtual time.
func (s *Simulator) RunFor(d time.Duration) { s.RunUntil(s.now + d) }
