package experiments

import (
	"context"
	"fmt"
	"net/netip"
	"time"

	"srlb/internal/des"
	"srlb/internal/testbed"
)

// replaySettings are the per-run generator settings (see
// testbed.Generator.RetransmitRTO and .CloseAck) and observers.
type replaySettings struct {
	retransmitRTO time.Duration
	closeAck      bool
	hooks         PoissonHooks
}

// checkSpan is the engine's input check: every span handed to replay
// comes through here. A non-positive load or a forgotten Lambda0 makes
// the span zero, negative or a float overflow (MinInt64 or MaxInt64,
// depending on the platform), and the cell would come back empty with a
// nil error.
func checkSpan(w interface{ Label() string }, load float64, span time.Duration) time.Duration {
	if span <= 0 || span > 100*365*24*time.Hour {
		panic(fmt.Sprintf("experiments: %s at load %g has no arrival span (rate and load must be > 0)", w.Label(), load))
	}
	return span
}

// replay runs one open-loop cell. top is the cluster, its events still
// rate-relative; streams holds one arrival stream per VIP, in VIP order,
// opened against top's VIPSpecs; span is the longest stream's expected
// arrival span. Events and the feedback horizon resolve against span, the
// testbed is built, every stream is pumped one arrival ahead — the
// scheduler never holds more than one future arrival per VIP — and the
// simulator runs under ctx until the drain window has passed. Query IDs
// are global across VIPs. The returned sink holds the aggregate and
// per-VIP outcome; err is ctx.Err() when cancelled mid-replay.
func replay(ctx context.Context, top testbed.Topology, streams []ServiceStream, span time.Duration, set replaySettings) (*testbed.Testbed, *testbed.SketchSink, error) {
	top.Events = testbed.ResolveEvents(top.Events, span)
	horizon := span + 2*time.Minute // let in-flight queries finish
	if top.Feedback.Enabled && top.Feedback.Horizon <= 0 {
		// Publish through the run's own horizon, then stop so the idle
		// simulator can terminate.
		top.Feedback.Horizon = horizon
	}
	if set.retransmitRTO > 0 {
		horizon += 3 * time.Minute // leave room for the backoff ladder
	}
	tb := testbed.Build(top)
	tb.Gen.RetransmitRTO = set.retransmitRTO
	tb.Gen.CloseAck = set.closeAck

	// Per-query results fold into constant-size sketches as they complete;
	// VIPs are registered up front so sink.VIPs() is in VIP order.
	vips := make([]netip.Addr, len(streams))
	for v := range vips {
		vips[v] = tb.VIPAddrOf(v)
	}
	sink := testbed.NewSketchSink(vips...)
	tb.Gen.Sink = sink
	tb.Gen.OnResult = set.hooks.OnResult
	if set.hooks.Testbed != nil {
		set.hooks.Testbed(tb, horizon)
	}

	// The DES merges the pumps in time order, ties by scheduling order.
	var nextID uint64
	for v, stream := range streams {
		p := &pump{tb: tb, stream: stream, vip: vips[v], nextID: &nextID}
		p.fire = p.launch
		p.schedule()
	}
	err := runSim(ctx, tb.Sim, horizon)
	// Drained queries report through the sink as Unfinished.
	tb.Gen.DrainPending()
	return tb, sink, err
}

// pump feeds one stream into the generator one arrival ahead. The pending
// query lives in the struct and fire is bound once, so a launch allocates
// nothing.
type pump struct {
	tb     *testbed.Testbed
	stream ServiceStream
	vip    netip.Addr
	nextID *uint64
	q      testbed.Query
	fire   func()
}

func (p *pump) schedule() {
	if at, q, ok := p.stream.Next(); ok {
		p.q = q
		p.tb.Sim.Schedule(at, p.fire)
	}
}

func (p *pump) launch() {
	q := p.q
	q.ID = *p.nextID
	*p.nextID++
	q.VIP = p.vip
	p.tb.Gen.Launch(q)
	p.schedule()
}

// simBatch is how many DES events run between cancellation polls. Large
// enough that ctx.Err() is noise in the profile, small enough that a
// cancelled 20000-query cell aborts within a few milliseconds.
const simBatch = 8192

// runSim drives the simulator to the horizon, polling ctx between event
// batches so a cancelled sweep returns promptly even mid-cell.
func runSim(ctx context.Context, sim *des.Simulator, horizon time.Duration) error {
	if ctx == nil {
		ctx = context.Background()
	}
	for {
		if err := ctx.Err(); err != nil {
			return err
		}
		if !sim.RunUntilLimit(horizon, simBatch) {
			return nil
		}
	}
}

// sinkOutcome reads the all-VIP aggregate off a replay's sink.
func sinkOutcome(sink *testbed.SketchSink) CellOutcome {
	total := sink.Total()
	return CellOutcome{
		RT:         total.RT,
		Refused:    int(total.Counters.Refused),
		Unfinished: int(total.Counters.Unfinished),
	}
}

// replayService replays one service on the cluster's single VIP, its
// stream opened with the cluster seed — the engine's face for the
// Poisson-family workloads. Extra carries PoissonStats.
func replayService(ctx context.Context, cluster ClusterConfig, spec PolicySpec, svc ServiceWorkload, load float64, set replaySettings) (CellOutcome, error) {
	span := checkSpan(svc, load, svc.Span(load))
	top := cluster.topology(spec)
	stream := svc.Open(&top.VIPs[0], top.Seed, load)
	tb, sink, err := replay(ctx, top, []ServiceStream{stream}, span, set)
	out := sinkOutcome(sink)
	stats := PoissonStats{
		ServerCompleted: make([]uint64, len(tb.Servers)),
		Retransmits:     tb.Gen.Counts.Get("syn_retransmits"),
		SYNTimeouts:     tb.Gen.Counts.Get("syn_timeout"),
	}
	for i, s := range tb.Servers {
		stats.ServerCompleted[i] = s.Stats().Completed
	}
	out.Extra = stats
	return out, err
}
