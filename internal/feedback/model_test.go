package feedback

import (
	"net/netip"
	"testing"
	"time"
)

// modelKey names one (VIP, server) slot of the reference model.
type modelKey struct{ vip, server int }

// FuzzViewModel drives a View with Ingest, For, ServerLoad, Report and
// Reset at arbitrary clock values and holds every answer to a naive
// reference: a map from (VIP, server) to the last report ingested. A
// report is fresh iff now − At ≤ 3 × Interval; Reset forgets every
// report and keeps Stats.
//
// The model pins today's rule for an out-of-order report: the last one
// ingested wins, even when its At is older than the report it replaces.
// Reports arrive in time order in the simulator (DES ticks call Ingest
// directly), so nothing else shows which rule holds; a reordering
// transport or in-band reports would make "newest At wins" differ.
//
// Input: the first byte picks the interval (1–4 ms, or the 100 ms
// default when its top bit is set); every op after it is four bytes.
// Times are multiples of a quarter interval plus −1, 0 or +1 ns, so the
// TTL boundary (exactly twelve quarters) and its neighbours come up
// often.
func FuzzViewModel(f *testing.F) {
	// Ingest at 0, then read at exactly the TTL (fresh), 1 ns past it
	// (stale) and 1 ns before it (fresh).
	f.Add([]byte{0, 0, 0, 4, 0, 1, 0, 1, 12, 2, 0, 0, 0, 1, 0, 2, 12, 2, 0, 0, 0, 1, 0, 0, 12, 2, 0, 0, 0})
	// A report at 10 quarters, then an older one at 2 ingested last: it
	// wins, so at 15 quarters the server is stale. Then For, Reset, and
	// reads of the forgotten slot.
	f.Add([]byte{0x81, 0, 0, 4, 10, 0, 0, 4, 2, 3, 0, 0, 0, 1, 0, 1, 13, 2, 0, 0, 0, 1, 0, 1, 15, 2, 0, 0, 0,
		5, 0, 0, 0, 4, 0, 0, 0, 3, 0, 0, 0, 2, 0, 0, 0, 5, 0, 0, 0})
	f.Add([]byte{2, 0, 2, 3, 0x80, 7, 5, 2, 0, 0, 1, 0x7f, 1, 2, 2, 3, 4, 4, 1, 0xf4, 0, 0, 2, 2, 3, 0})
	vips := []netip.Addr{addr(0), addr(1), addr(2)}
	servers := []netip.Addr{addr(100), addr(101), addr(102), addr(103)}
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) == 0 {
			return
		}
		cfg := Config{Enabled: true, Interval: time.Duration(data[0]%4+1) * time.Millisecond}
		if data[0]&0x80 != 0 {
			cfg.Interval = 0
		}
		data = data[1:]
		var now time.Duration
		v := NewView(cfg, func() time.Duration { return now })
		interval := v.Config().Interval
		quarter := interval / 4
		// at decodes a time: a signed count of quarter intervals, plus
		// −1, 0 or +1 ns.
		at := func(q, jitter byte) time.Duration {
			return time.Duration(int8(q))*quarter + time.Duration(int(jitter%3)-1)
		}

		model := map[modelKey]Report{}
		var ingests uint64
		projections := map[int]*VIPView{}
		for ; len(data) >= 4; data = data[4:] {
			op, b1, b2, b3 := data[0], data[1], data[2], data[3]
			k := modelKey{vip: int(b1) % len(vips), server: int(b2) % len(servers)}
			vip, server := vips[k.vip], servers[k.server]
			switch op % 6 {
			case 0: // Ingest; the last report ingested wins.
				rpt := Report{Busy: int(b3 % 9), Workers: 8, Flows: int(b2), Util: float64(b3) / 255, At: at(b3, b2/4)}
				v.Ingest(vip, server, rpt)
				model[k] = rpt
				ingests++
			case 1: // Move the clock anywhere, backwards included.
				now = at(b3, b2)
			case 2: // ServerLoad
				load, fresh := v.For(vip).ServerLoad(server)
				want, ok := model[k]
				wantFresh := ok && now-want.At <= 3*interval
				if !ok {
					want.Util = 0
				}
				if load != want.Util || fresh != wantFresh {
					t.Fatalf("now %v: ServerLoad%v = (%v, %v), want (%v, %v); model report %+v (stored: %v)",
						now, k, load, fresh, want.Util, wantFresh, want, ok)
				}
			case 3: // Report
				got, ok := v.For(vip).Report(server)
				want, wantOK := model[k]
				if got != want || ok != wantOK {
					t.Fatalf("Report%v = (%+v, %v), want (%+v, %v)", k, got, ok, want, wantOK)
				}
			case 4: // Reset keeps the counters.
				v.Reset()
				clear(model)
			case 5: // For hands out one projection per VIP for the view's lifetime.
				vv := v.For(vip)
				if p, seen := projections[k.vip]; seen && p != vv {
					t.Fatalf("For(vip %d) returned a new projection", k.vip)
				}
				projections[k.vip] = vv
			}
			if got := v.Stats().Ingests; got != ingests {
				t.Fatalf("Stats().Ingests = %d, want %d", got, ingests)
			}
		}
	})
}
