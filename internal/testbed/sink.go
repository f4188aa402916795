package testbed

import (
	"net/netip"
	"time"

	"srlb/internal/addrtab"
	"srlb/internal/sketch"
)

// VIPSketch aggregates one service's outcomes in constant memory: a
// quantile histogram over response times of completed queries, plus the
// offered/outcome counter set.
type VIPSketch struct {
	// VIP is the service address (the zero Addr on the sink's Total).
	VIP netip.Addr
	// RT sketches the response times of successful queries.
	RT *sketch.Histogram
	// Counters is the query accounting for this VIP.
	Counters sketch.Counters
}

func newVIPSketch(vip netip.Addr) *VIPSketch {
	return &VIPSketch{VIP: vip, RT: sketch.New()}
}

func (v *VIPSketch) record(res Result) {
	switch {
	case res.OK:
		v.Counters.OK++
		v.RT.Add(res.RT)
	case res.Refused:
		v.Counters.Refused++
	default:
		v.Counters.Unfinished++
	}
}

// TimelineBins is the number of bins in a SketchSink's Timeline.
const TimelineBins = 40

// TimelineBin is one issue-time bin: the queries issued in it, how many
// of them completed, and their summed response time.
type TimelineBin struct {
	Launched, OK int
	SumRT        time.Duration
}

// Timeline bins every recorded outcome by the time its query was
// issued: bin i covers [i·Width, (i+1)·Width), and the last bin also
// takes every query issued past the span. Bin edges depend on the span
// alone, so bin i lines up across the replicates of a cell.
type Timeline struct {
	Width time.Duration
	Bins  [TimelineBins]TimelineBin
}

func (tl *Timeline) record(res Result) {
	b := &tl.Bins[min(max(int(res.IssuedAt/tl.Width), 0), TimelineBins-1)]
	b.Launched++
	if res.OK {
		b.OK++
		b.SumRT += res.RT
	}
}

// SketchSink consumes the Generator's per-query outcomes as they happen
// — the constant-memory alternative to retaining a []Result — into
// per-VIP sketches plus an all-VIP total and an issue-time Timeline, all
// deterministic functions of the observed stream. Offer is called once
// per Launch (before any packet moves), Record once per terminal outcome
// (response, RST, client timeout, or drain), so Offered == OK + Refused
// + Unfinished once a run has drained. Its memory footprint is fixed by
// the VIP count and the range of response times each histogram spans
// (whole power-of-two ranges, from the fastest to the slowest) —
// independent of how many queries flow through, which is what lets a
// 10⁸-query horizon run fit in a constant heap.
type SketchSink struct {
	total    VIPSketch
	order    []*VIPSketch // by id in ids
	ids      *addrtab.Table
	timeline Timeline
}

// NewSketchSink builds a sink whose Timeline spreads span over its bins,
// with the given VIPs pre-registered (in order). VIPs seen later
// auto-register in first-appearance order — deterministic, since
// launches are.
func NewSketchSink(span time.Duration, vips ...netip.Addr) *SketchSink {
	s := &SketchSink{
		total:    VIPSketch{RT: sketch.New()},
		ids:      addrtab.New(len(vips)),
		timeline: Timeline{Width: max(span/TimelineBins, 1)},
	}
	for _, vip := range vips {
		s.vip(vip)
	}
	return s
}

func (s *SketchSink) vip(addr netip.Addr) *VIPSketch {
	id := s.ids.Add(addr)
	if int(id) == len(s.order) {
		s.order = append(s.order, newVIPSketch(addr))
	}
	return s.order[id]
}

// Offer counts one launched query for vip.
func (s *SketchSink) Offer(vip netip.Addr) {
	s.total.Counters.Offered++
	s.vip(vip).Counters.Offered++
}

// Record folds one terminal outcome into its VIP's sketch, the total and
// the timeline.
func (s *SketchSink) Record(res Result) {
	s.total.record(res)
	s.vip(res.VIP).record(res)
	s.timeline.record(res)
}

// Total returns the all-VIP aggregate.
func (s *SketchSink) Total() *VIPSketch { return &s.total }

// VIPs returns every per-service sketch in registration order.
func (s *SketchSink) VIPs() []*VIPSketch { return s.order }

// Timeline returns the issue-time timeline of every recorded outcome.
func (s *SketchSink) Timeline() *Timeline { return &s.timeline }
