package core

import (
	"net/netip"
	"slices"
	"testing"
	"time"

	"srlb/internal/flowtable"
	"srlb/internal/ipv6"
	"srlb/internal/packet"
	"srlb/internal/rng"
	"srlb/internal/selection"
	"srlb/internal/tcpseg"
)

// The dispatcher has no clock and no network of its own: every step
// below hands it a time and a packet, and reads the verdict and the
// rewritten packet back. Two connections live through SYN → SYN-ACK →
// ACK; one is closed by a FIN, and its state goes when — and only when —
// the caller's clock says the linger and the sweep interval have passed.
func TestDispatcherRunsOnCallerTime(t *testing.T) {
	d := NewDispatcher(Config{
		Addr:    lbAddr,
		VIPList: []VIPConfig{{Addr: vip, Scheme: selection.NewRoundRobin([]netip.Addr{sAddr1, sAddr2}, 2)}},
	})
	const ms = time.Millisecond
	const closed, open = 40000, 40001

	syn := clientSYN(closed)
	if !d.Dispatch(0, syn) {
		t.Fatal("SYN dropped")
	}
	path := syn.SRH.Path()
	if len(path) != 3 || path[2] != vip || syn.IP.Dst != path[0] {
		t.Fatalf("hunt SYN: dst %v, path %v", syn.IP.Dst, path)
	}
	for _, port := range []uint16{closed, open} {
		sa := serverSYNACK(sAddr2, port)
		if !d.Dispatch(1*ms, sa) || sa.SRH != nil || sa.IP.Dst != client {
			t.Fatalf("SYN-ACK: dst %v, SRH %v", sa.IP.Dst, sa.SRH)
		}
	}
	if got := d.FlowCount(); got != 2 {
		t.Fatalf("flow count = %d after two SYN-ACKs", got)
	}

	// steer sends one mid-flow packet at now and requires it forwarded to
	// the learned server.
	steer := func(now time.Duration, port uint16, flags tcpseg.Flags) {
		t.Helper()
		p := midFlow(port, flags)
		if !d.Dispatch(now, p) {
			t.Fatalf("port %d at %v: dropped", port, now)
		}
		if want := []netip.Addr{sAddr2, vip}; p.IP.Dst != sAddr2 || !slices.Equal(p.SRH.Path(), want) {
			t.Fatalf("port %d at %v: dst %v, path %v", port, now, p.IP.Dst, p.SRH.Path())
		}
	}
	steer(2*ms, closed, tcpseg.FlagACK)
	steer(3*ms, closed, tcpseg.FlagFIN|tcpseg.FlagACK)
	if got := d.Counts.Get("closing_observed"); got != 1 {
		t.Fatalf("closing_observed = %d", got)
	}

	// The linger runs out at end. A sweep at the whole second before it
	// finds the entry live, and no sweep is due before the next whole
	// second: traffic on the other flow leaves the dead entry be.
	end := 3*ms + flowtable.FinLinger
	next := end.Truncate(time.Second) + time.Second
	steer(end.Truncate(time.Second), open, tcpseg.FlagACK)
	steer(next-ms, open, tcpseg.FlagACK)
	if got := d.FlowCount(); got != 2 {
		t.Fatalf("flow count = %d at %v, want 2 (sweep not yet due)", got, next-ms)
	}
	// At the next whole second the same packet triggers the opportunistic
	// sweep.
	steer(next, open, tcpseg.FlagACK)
	if got, exp := d.FlowCount(), d.FlowStats().Expiries; got != 1 || exp != 1 {
		t.Fatalf("flow count = %d, expiries = %d at %v, want 1 and 1", got, exp, next)
	}

	late := midFlow(closed, tcpseg.FlagACK)
	if d.Dispatch(next+ms, late) {
		t.Fatalf("ACK after the linger forwarded to %v", late.IP.Dst)
	}
	if got := d.Counts.Get("miss_dropped"); got != 1 {
		t.Fatalf("miss_dropped = %d", got)
	}
}

// TestDispatchAllocations pins what the dispatcher allocates per packet
// once warm. A SYN costs nothing: the scheme answers from its scratch and
// the hunt header is the dispatcher's own, rewritten in place. A steered
// ACK costs exactly one object, the srv6.New in handleSteered (header and
// two-segment list in one allocation) — the one allocation site left on
// the data plane, kept because the frozen benchmark cannot yet report a
// dispatch workload that makes no garbage (ROADMAP item 1); when that
// lands the 1 becomes 0.
func TestDispatchAllocations(t *testing.T) {
	d := NewDispatcher(Config{
		Addr:    lbAddr,
		VIPList: []VIPConfig{{Addr: vip, Scheme: selection.NewRandom([]netip.Addr{sAddr1, sAddr2}, 2, rng.New(1))}},
	})
	var pkt packet.Packet
	offer := func(port uint16, flags tcpseg.Flags) {
		pkt = packet.Packet{
			IP:  ipv6.Header{Src: client, Dst: vip},
			TCP: tcpseg.Segment{SrcPort: port, DstPort: 80, Flags: flags},
		}
		if !d.Dispatch(time.Millisecond, &pkt) {
			t.Fatalf("port %d flags %v dropped", port, flags)
		}
	}
	offer(40000, tcpseg.FlagSYN) // grows the hunt header and the counter keys
	if n := testing.AllocsPerRun(100, func() { offer(40000, tcpseg.FlagSYN) }); n != 0 {
		t.Errorf("warm SYN: %v allocs, want 0", n)
	}
	if path := pkt.SRH.Path(); len(path) != 3 || path[2] != vip || pkt.IP.Dst != path[0] {
		t.Fatalf("hunt SYN: dst %v, path %v", pkt.IP.Dst, path)
	}

	d.SeedFlow(0, packet.FlowKey{Src: client, Dst: vip, SrcPort: 40001, DstPort: 80}, sAddr2)
	offer(40001, tcpseg.FlagACK)
	if n := testing.AllocsPerRun(100, func() { offer(40001, tcpseg.FlagACK) }); n != 1 {
		t.Errorf("steered ACK: %v allocs, want exactly 1 (handleSteered's srv6.New)", n)
	}
}

// Dispatch's ownership contract says a steered packet carries a header
// of its own: two consecutive steered packets of one flow hold distinct
// headers and distinct segment lists, so rewriting the first (as a
// server's advance does) leaves the second as the LB built it.
func TestSteeredPacketsOwnTheirHeaders(t *testing.T) {
	d := NewDispatcher(Config{
		Addr:    lbAddr,
		VIPList: []VIPConfig{{Addr: vip, Scheme: selection.NewRoundRobin([]netip.Addr{sAddr1, sAddr2}, 2)}},
	})
	d.SeedFlow(0, packet.FlowKey{Src: client, Dst: vip, SrcPort: 40000, DstPort: 80}, sAddr2)
	first, second := midFlow(40000, tcpseg.FlagACK), midFlow(40000, tcpseg.FlagACK)
	for _, p := range []*packet.Packet{first, second} {
		if !d.Dispatch(time.Millisecond, p) {
			t.Fatal("steered ACK dropped")
		}
	}
	if first.SRH == second.SRH || &first.SRH.Segments[0] == &second.SRH.Segments[0] {
		t.Fatalf("two steered packets share a header (%p, %p) or a segment list", first.SRH, second.SRH)
	}
	first.SRH.Segments[0] = lbAddr
	if _, err := first.SRH.Advance(); err != nil {
		t.Fatal(err)
	}
	if want := []netip.Addr{sAddr2, vip}; second.SRH.SegmentsLeft != 1 || !slices.Equal(second.SRH.Path(), want) {
		t.Fatalf("rewriting the first header moved the second: %v", second.SRH)
	}
}

// mover is a Stateful + Resteerer scheme that sends every eligible
// steered packet to server and counts the Observe calls it receives.
type mover struct {
	selection.Scheme
	server   netip.Addr
	observes int
}

func (m *mover) Observe(netip.Addr, int) { m.observes++ }
func (m *mover) Update([]netip.Addr)     {}
func (m *mover) Resteer(_ time.Duration, _ packet.FlowKey, _ time.Duration, cur netip.Addr) (netip.Addr, bool) {
	return m.server, cur != m.server
}

// SetSchemes replaces a VIP's scheme and fallback under live flows and
// re-probes the capabilities each time: the stateful scheme installed
// second moves the flow and sees its Observe deltas, and the plain one
// installed after it leaves the binding alone while its fallback
// steers a flow the table never learned.
func TestSetSchemesReprobesCapabilities(t *testing.T) {
	plain := selection.NewRoundRobin([]netip.Addr{sAddr1, sAddr2}, 2)
	d := NewDispatcher(Config{Addr: lbAddr, VIPList: []VIPConfig{{Addr: vip, Scheme: plain}}})
	d.SeedFlow(0, packet.FlowKey{Src: client, Dst: vip, SrcPort: 40000, DstPort: 80}, sAddr2)
	steer := func(port uint16) netip.Addr {
		t.Helper()
		p := midFlow(port, tcpseg.FlagACK)
		if !d.Dispatch(time.Millisecond, p) {
			t.Fatalf("port %d dropped", port)
		}
		return p.IP.Dst
	}

	m := &mover{Scheme: plain, server: sAddr1}
	d.SetSchemes(0, m, nil)
	if got := steer(40000); got != sAddr1 || m.observes != 2 {
		t.Fatalf("stateful scheme: steered to %v after %d Observe calls; want %v after 2 (old -1, new +1)", got, m.observes, sAddr1)
	}
	if got := d.Counts.Get("flowlet_resteer"); got != 1 {
		t.Fatalf("flowlet_resteer = %d, want 1", got)
	}

	chash, err := selection.NewConsistentHash([]netip.Addr{sAddr2}, 0)
	if err != nil {
		t.Fatal(err)
	}
	d.SetSchemes(0, plain, chash)
	if got := steer(40000); got != sAddr1 || d.Counts.Get("flowlet_resteer") != 1 {
		t.Fatalf("plain scheme moved the flow to %v", got)
	}
	if got := steer(40001); got != sAddr2 || d.Counts.Get("miss_fallback") != 1 {
		t.Fatalf("unlearned flow went to %v, miss_fallback %d; want the fallback's %v", got, d.Counts.Get("miss_fallback"), sAddr2)
	}
}
