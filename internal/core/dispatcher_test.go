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
		Flows:   flowtable.Config{FinLinger: 100 * time.Millisecond},
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

	// The linger ran out at 103 ms, but no sweep is due before 1 s of the
	// caller's time: traffic on the other flow leaves the dead entry be.
	steer(999*ms, open, tcpseg.FlagACK)
	if got := d.FlowCount(); got != 2 {
		t.Fatalf("flow count = %d at 999ms, want 2 (sweep not yet due)", got)
	}
	// At 1 s the same packet triggers the opportunistic sweep.
	steer(1000*ms, open, tcpseg.FlagACK)
	if got, exp := d.FlowCount(), d.FlowStats().Expiries; got != 1 || exp != 1 {
		t.Fatalf("flow count = %d, expiries = %d at 1s, want 1 and 1", got, exp)
	}

	late := midFlow(closed, tcpseg.FlagACK)
	if d.Dispatch(1001*ms, late) {
		t.Fatalf("ACK after the linger forwarded to %v", late.IP.Dst)
	}
	if got := d.Counts.Get("miss_dropped"); got != 1 {
		t.Fatalf("miss_dropped = %d", got)
	}
}

// TestDispatchAllocations pins what the dispatcher allocates per packet
// once warm. A SYN costs nothing: the scheme answers from its scratch and
// the hunt header is the dispatcher's own, rewritten in place. A steered
// ACK costs exactly two objects, the srv6.New in handleSteered — the one
// allocation site left on the data plane, kept because the frozen
// benchmark cannot yet report a dispatch workload that makes no garbage
// (ROADMAP item 1); when that lands the 2 becomes 0.
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
	if n := testing.AllocsPerRun(100, func() { offer(40001, tcpseg.FlagACK) }); n != 2 {
		t.Errorf("steered ACK: %v allocs, want exactly 2 (handleSteered's srv6.New)", n)
	}
}
