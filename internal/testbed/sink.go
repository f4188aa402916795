package testbed

import (
	"net/netip"

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

// SketchSink consumes the Generator's per-query outcomes as they happen
// — the constant-memory alternative to retaining a []Result — into
// per-VIP sketches plus an all-VIP total, all deterministic functions of
// the observed stream. Offer is called once per Launch (before any
// packet moves), Record once per terminal outcome (response, RST, client
// timeout, or drain), so Offered == OK + Refused + Unfinished once a run
// has drained. Its memory footprint is fixed by the VIP count and the
// histogram value range — independent of how many queries flow through,
// which is what lets a 10⁸-query horizon run fit in a constant heap.
type SketchSink struct {
	total VIPSketch
	order []*VIPSketch
	byVIP map[netip.Addr]*VIPSketch
}

// NewSketchSink builds a sink with the given VIPs pre-registered (in
// order). VIPs seen later auto-register in first-appearance order —
// deterministic, since launches are.
func NewSketchSink(vips ...netip.Addr) *SketchSink {
	s := &SketchSink{
		total: VIPSketch{RT: sketch.New()},
		byVIP: make(map[netip.Addr]*VIPSketch, len(vips)),
	}
	for _, vip := range vips {
		s.vip(vip)
	}
	return s
}

func (s *SketchSink) vip(addr netip.Addr) *VIPSketch {
	if v, ok := s.byVIP[addr]; ok {
		return v
	}
	v := newVIPSketch(addr)
	s.byVIP[addr] = v
	s.order = append(s.order, v)
	return v
}

// Offer counts one launched query for vip.
func (s *SketchSink) Offer(vip netip.Addr) {
	s.total.Counters.Offered++
	s.vip(vip).Counters.Offered++
}

// Record folds one terminal outcome into its VIP's sketch and the total.
func (s *SketchSink) Record(res Result) {
	s.total.record(res)
	s.vip(res.VIP).record(res)
}

// Total returns the all-VIP aggregate.
func (s *SketchSink) Total() *VIPSketch { return &s.total }

// VIP returns the sketch of one service (nil if never offered a query
// and not pre-registered).
func (s *SketchSink) VIP(addr netip.Addr) *VIPSketch { return s.byVIP[addr] }

// VIPs returns every per-service sketch in registration order.
func (s *SketchSink) VIPs() []*VIPSketch { return s.order }
