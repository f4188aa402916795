package feedback

import (
	"net/netip"
	"testing"
	"time"
)

func addr(i int) netip.Addr {
	a := netip.MustParseAddr("2001:db8:beef::1")
	for j := 0; j < i; j++ {
		a = a.Next()
	}
	return a
}

func TestConfigDefaults(t *testing.T) {
	c := Config{Enabled: true}.WithDefaults()
	if c.Interval != 100*time.Millisecond {
		t.Fatalf("Interval = %v", c.Interval)
	}
	if v := NewView(c, nil); v.ttl != 3*c.Interval {
		t.Fatalf("TTL = %v, want 3x interval", v.ttl)
	}
	// An explicit interval survives, and the TTL follows it.
	c = Config{Interval: time.Second}.WithDefaults()
	if v := NewView(c, nil); c.Interval != time.Second || v.ttl != 3*time.Second {
		t.Fatalf("explicit config mangled: %+v, TTL %v", c, v.ttl)
	}
}

func TestPublisherEWMA(t *testing.T) {
	p := NewPublisher(0.5)
	// First sample primes the filter — no warm-up bias toward zero.
	r := p.Sample(0, 8, 8, 3)
	if r.Util != 1.0 {
		t.Fatalf("primed util = %v, want 1.0", r.Util)
	}
	if r.Busy != 8 || r.Workers != 8 || r.Flows != 3 || r.At != 0 {
		t.Fatalf("report fields mangled: %+v", r)
	}
	// Second sample folds: 0.5*0 + 0.5*1.0.
	r = p.Sample(time.Second, 0, 8, 0)
	if r.Util != 0.5 {
		t.Fatalf("EWMA util = %v, want 0.5", r.Util)
	}
	// Zero workers reads as zero instantaneous load, not a divide.
	r = p.Sample(2*time.Second, 0, 0, 0)
	if r.Util != 0.25 {
		t.Fatalf("util after zero-worker sample = %v, want 0.25", r.Util)
	}
}

func TestViewFreshnessTTL(t *testing.T) {
	now := time.Duration(0)
	v := NewView(Config{Enabled: true}, func() time.Duration { return now })
	vip, s := addr(0), addr(1)
	vv := v.For(vip)

	// Never reported: unknown and stale.
	if load, fresh := vv.ServerLoad(s); load != 0 || fresh {
		t.Fatalf("unreported server = (%v, %v), want (0, false)", load, fresh)
	}

	v.Ingest(vip, s, Report{Util: 0.7, At: now})
	if load, fresh := vv.ServerLoad(s); load != 0.7 || !fresh {
		t.Fatalf("fresh report = (%v, %v), want (0.7, true)", load, fresh)
	}

	// Exactly at the TTL boundary the report still counts.
	ttl := v.ttl
	now = ttl
	if _, fresh := vv.ServerLoad(s); !fresh {
		t.Fatal("report exactly TTL old must still be fresh")
	}

	// One tick past the TTL it goes stale — a silent server must stop
	// attracting load-aware traffic.
	now = ttl + time.Nanosecond
	if _, fresh := vv.ServerLoad(s); fresh {
		t.Fatal("report older than TTL must be stale")
	}

	// A fresh report recovers the server.
	v.Ingest(vip, s, Report{Util: 0.2, At: now})
	if load, fresh := vv.ServerLoad(s); load != 0.2 || !fresh {
		t.Fatalf("recovered report = (%v, %v), want (0.2, true)", load, fresh)
	}
}

func TestViewPerVIPIsolation(t *testing.T) {
	now := time.Duration(0)
	v := NewView(Config{Enabled: true}, func() time.Duration { return now })
	vipA, vipB, s := addr(0), addr(1), addr(2)
	v.Ingest(vipA, s, Report{Util: 0.9, At: now})
	if _, fresh := v.For(vipB).ServerLoad(s); fresh {
		t.Fatal("report for vipA leaked into vipB's view")
	}
	if load, fresh := v.For(vipA).ServerLoad(s); load != 0.9 || !fresh {
		t.Fatalf("vipA view = (%v, %v)", load, fresh)
	}
	// For returns a stable pointer — schemes capture it once.
	if v.For(vipA) != v.For(vipA) {
		t.Fatal("For must return a stable per-VIP projection")
	}
}

func TestViewIngestReplacesAndCounts(t *testing.T) {
	now := time.Duration(0)
	v := NewView(Config{Enabled: true}, func() time.Duration { return now })
	vip, s := addr(0), addr(1)
	v.Ingest(vip, s, Report{Util: 0.3, Flows: 1, At: 0})
	v.Ingest(vip, s, Report{Util: 0.6, Flows: 2, At: 0})
	if got := v.Stats().Ingests; got != 2 {
		t.Fatalf("Ingests = %d, want 2", got)
	}
	rpt, ok := v.For(vip).Report(s)
	if !ok || rpt.Util != 0.6 || rpt.Flows != 2 {
		t.Fatalf("Report = (%+v, %v), want the latest ingest", rpt, ok)
	}
	if _, ok := v.For(vip).Report(addr(9)); ok {
		t.Fatal("Report for an unknown server must report !ok")
	}
}

func TestViewIngestSteadyStateAllocs(t *testing.T) {
	now := time.Duration(0)
	v := NewView(Config{Enabled: true}, func() time.Duration { return now })
	vip := addr(0)
	srv := []netip.Addr{addr(1), addr(2), addr(3)}
	for _, s := range srv {
		v.Ingest(vip, s, Report{At: now})
	}
	allocs := testing.AllocsPerRun(200, func() {
		for _, s := range srv {
			v.Ingest(vip, s, Report{Util: 0.5, At: now})
		}
	})
	if allocs != 0 {
		t.Fatalf("steady-state Ingest allocates %.1f times per round, want 0", allocs)
	}
}
