package experiments

import (
	"context"
	"fmt"
	"hash/fnv"
	"net/netip"
	"reflect"
	"slices"
	"testing"
	"time"

	"srlb/internal/packet"
	"srlb/internal/testbed"
)

// crnRun is what one policy's cell draws from its random streams: the
// queries it issues, as (ID, issue time) in ID order and as its
// timeline's per-bin launch counts, each flow's demand, read off its
// request, and each flow's candidate list, read off the first steered
// SYN the LB forwards.
type crnRun struct {
	issued     []string
	launched   [testbed.TimelineBins]int
	demands    map[packet.FlowKey]time.Duration
	candidates map[packet.FlowKey][]netip.Addr
}

func runCRN(t *testing.T, spec PolicySpec) crnRun {
	run := crnRun{demands: map[packet.FlowKey]time.Duration{}, candidates: map[packet.FlowKey][]netip.Addr{}}
	type issue struct {
		id uint64
		at time.Duration
	}
	var issues []issue
	hooks := PoissonHooks{
		OnResult: func(res testbed.Result) { issues = append(issues, issue{res.ID, res.IssuedAt}) },
		Testbed: func(tb *testbed.Testbed, _ time.Duration) {
			vip := tb.VIPAddrOf(0)
			tb.Net.AddTap(func(_ time.Duration, _ netip.Addr, p *packet.Packet) {
				flow := p.Flow()
				if _, seen := run.candidates[flow]; !seen && p.IsSYN() && p.SRH != nil {
					run.candidates[flow] = p.SRH.Path()
				}
				if _, seen := run.demands[flow]; !seen && p.IP.Dst == vip && len(p.TCP.Payload) > 0 {
					run.demands[flow], _ = testbed.DecodePayload(p.TCP.Payload)
				}
			})
		},
	}
	w := OneService(PoissonService{Lambda0: 80, Queries: 1500})
	out, err := w.run(context.Background(), smallCluster(43), spec, 0.85, hooks)
	if err != nil {
		t.Fatal(err)
	}
	for i, b := range out.Timeline.Bins {
		run.launched[i] = b.Launched
	}
	slices.SortFunc(issues, func(a, b issue) int { return int(a.id) - int(b.id) })
	for _, q := range issues {
		run.issued = append(run.issued, fmt.Sprint(q.id, q.at))
	}
	return run
}

// flowOrder returns m's flows sorted by client address and port.
func flowOrder[V any](m map[packet.FlowKey]V) []packet.FlowKey {
	keys := make([]packet.FlowKey, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	slices.SortFunc(keys, func(a, b packet.FlowKey) int {
		if c := a.Src.Compare(b.Src); c != 0 {
			return c
		}
		return int(a.SrcPort) - int(b.SrcPort)
	})
	return keys
}

// digest hashes a value's printed form.
func digest(v any) string {
	h := fnv.New64a()
	fmt.Fprint(h, v)
	return fmt.Sprintf("%016x", h.Sum64())
}

// Every policy at one (seed, load) replays the same queries with the
// same demands, and the SR policies draw the same candidates for the
// same flows: the common random numbers a paired contrast between two
// policies rests on (ROADMAP item 22). The sequences are pinned, so a
// change that re-salts the arrival, demand or candidate stream fails
// here and says so.
func TestPoliciesShareRandomNumbers(t *testing.T) {
	rr, sr4, sr8 := runCRN(t, RR()), runCRN(t, SRc(4)), runCRN(t, SRc(8))
	if len(rr.issued) != 1500 || len(rr.demands) != 1500 {
		t.Fatalf("RR issued %d queries with %d requests, want 1500", len(rr.issued), len(rr.demands))
	}
	for _, r := range []crnRun{sr4, sr8} {
		if !slices.Equal(r.issued, rr.issued) {
			t.Fatal("policies replay different (ID, issue time) sequences at one (seed, load)")
		}
		if r.launched != rr.launched {
			t.Fatalf("policies' timelines launch %v and %v per bin at one (seed, load)", r.launched, rr.launched)
		}
		if !reflect.DeepEqual(r.demands, rr.demands) {
			t.Fatal("policies replay different demands at one (seed, load)")
		}
	}
	if len(sr4.candidates) != 1500 || !reflect.DeepEqual(sr4.candidates, sr8.candidates) {
		t.Fatalf("SR 4 and SR 8 drew different candidates (%d and %d flows)", len(sr4.candidates), len(sr8.candidates))
	}
	var demands, pairs []string
	for _, k := range flowOrder(sr4.candidates) {
		if c := sr4.candidates[k]; len(c) != 3 {
			t.Fatalf("steered SYN carries %v, want two candidates and the VIP", c)
		}
		demands = append(demands, fmt.Sprint(k.Src, k.SrcPort, rr.demands[k]))
		pairs = append(pairs, fmt.Sprint(k.Src, k.SrcPort, sr4.candidates[k]))
	}
	for _, pin := range []struct {
		name      string
		got, want string
	}{
		{"issue sequence", digest(rr.issued), "942899716acf72b8"},
		{"demands", digest(demands), "4c5ae4bbc07b7a96"},
		{"candidate lists", digest(pairs), "20f20a7f4493bc3e"},
	} {
		if pin.got != pin.want {
			t.Errorf("%s digest %s, want %s", pin.name, pin.got, pin.want)
		}
	}
}
