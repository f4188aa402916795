package selection

import (
	"encoding/binary"
	"net/netip"
	"testing"
	"time"

	"srlb/internal/rng"
)

// fuzzView is a hand-driven LoadView: the fuzzer mutates loads and
// freshness between packets to exercise every veto path in Resteer.
type fuzzView struct {
	loads map[netip.Addr]float64
	fresh map[netip.Addr]bool
}

func (v *fuzzView) ServerLoad(a netip.Addr) (float64, bool) { return v.loads[a], v.fresh[a] }

// FuzzFlowletGaps drives a Flowlet scheme with arbitrary interleavings
// of packet arrivals (per-flow idle gaps, SYN/RST flags, load and
// freshness churn) and checks the re-steering safety invariants the LB
// depends on:
//
//  1. A packet with idle ≤ gap never moves its flow — flowlets are
//     only cut at strict idle gaps, so in-flight reordering is
//     impossible.
//  2. Flowlet segments of one flow never overlap: each new flowlet
//     opens strictly after the previous segment's last packet plus the
//     gap.
//  3. SYNs and RSTs are never re-steer eligible (ResteerEligible), so
//     a connection's first packet and its teardown can't be split from
//     their flowlet.
//  4. A move only happens onto a different, known server whose
//     reported load is strictly lower than the current server's, with
//     both reports fresh — any staleness vetoes the move.
func FuzzFlowletGaps(f *testing.F) {
	f.Add([]byte{0, 0, 0, 0})
	f.Add([]byte{0, 1, 255, 255, 1, 0, 10, 0, 0, 2, 200, 0})
	f.Add([]byte{3, 4, 0, 1, 3, 8, 77, 0, 3, 0, 51, 0, 2, 12, 49, 0})
	f.Add([]byte{1, 0, 50, 0, 1, 0, 50, 0, 1, 0, 51, 0})
	f.Fuzz(func(t *testing.T, data []byte) {
		srv := servers(6)
		view := &fuzzView{
			loads: make(map[netip.Addr]float64, len(srv)),
			fresh: make(map[netip.Addr]bool, len(srv)),
		}
		for i, a := range srv {
			view.loads[a] = float64(i) / 8
			view.fresh[a] = true
		}
		known := make(map[netip.Addr]bool, len(srv))
		for _, a := range srv {
			known[a] = true
		}
		const gap = 50 * time.Millisecond
		fl := NewFlowlet(srv, gap, rng.New(0x9e37), view)

		type flowState struct {
			started bool
			backend netip.Addr
			last    time.Duration // previous packet of this flow
			segEnd  time.Duration // last packet of the previous flowlet
		}
		flows := make(map[int]*flowState)
		now := time.Duration(0)

		for i := 0; i+3 < len(data); i += 4 {
			fi := int(data[i]) % 4
			flags := data[i+1]
			isSYN := flags&1 != 0
			isRST := flags&2 != 0
			if flags&4 != 0 { // freshness churn on one server
				a := srv[int(data[i+2])%len(srv)]
				view.fresh[a] = !view.fresh[a]
			}
			if flags&8 != 0 { // load churn on one server
				a := srv[int(data[i+3])%len(srv)]
				view.loads[a] = float64(data[i+2]) / 255
			}
			now += time.Duration(binary.LittleEndian.Uint16(data[i+2:])) * time.Millisecond / 4

			st := flows[fi]
			if st == nil {
				// First packet of the flow: SYN-time placement via Pick,
				// exactly as the LB's Service Hunting path would do.
				picks := fl.Pick(flow(fi))
				if len(picks) == 0 {
					t.Fatal("Pick returned no candidates")
				}
				st = &flowState{started: true, backend: picks[0], last: now, segEnd: now}
				flows[fi] = st
				continue
			}

			// Invariant 3: SYN/RST packets are never re-steer eligible.
			if ResteerEligible(isSYN, isRST) != (!isSYN && !isRST) {
				t.Fatalf("ResteerEligible(%v, %v) violated the SYN/RST rule", isSYN, isRST)
			}
			idle := now - st.last
			if !ResteerEligible(isSYN, isRST) {
				// The LB skips Resteer entirely; the flow keeps its backend
				// and the packet still extends (or opens) a flowlet.
				st.segEnd = now
				st.last = now
				continue
			}

			next, moved := fl.Resteer(now, flow(fi), idle, st.backend)
			if !fl.Boundary(idle) {
				// Invariant 1: intra-flowlet packets never move.
				if moved || next != st.backend {
					t.Fatalf("idle %v ≤ gap %v but Resteer moved %v → %v", idle, gap, st.backend, next)
				}
			} else {
				// Invariant 2: the new flowlet opens strictly after the
				// previous segment's end plus the gap — segments of one
				// flow can never overlap or even touch.
				if now <= st.segEnd+gap {
					t.Fatalf("new flowlet at %v overlaps previous segment ending %v (gap %v)", now, st.segEnd, gap)
				}
				if moved {
					// Invariant 4: moves are strict improvements between
					// fresh reports, onto a real, different server. The
					// fuzzer never calls Observe, so the in-flight bias is
					// zero and the comparison is on raw reported load.
					if next == st.backend {
						t.Fatal("moved onto the current backend")
					}
					if !known[next] {
						t.Fatalf("moved onto unknown server %v", next)
					}
					if !view.fresh[st.backend] || !view.fresh[next] {
						t.Fatalf("moved %v → %v with a stale report", st.backend, next)
					}
					if view.loads[next] >= view.loads[st.backend] {
						t.Fatalf("moved %v (load %v) → %v (load %v): not a strict improvement",
							st.backend, view.loads[st.backend], next, view.loads[next])
					}
					st.backend = next
				} else if next != st.backend {
					t.Fatalf("Resteer returned (%v, false) but current is %v", next, st.backend)
				}
			}
			st.segEnd = now
			st.last = now
		}
	})
}
