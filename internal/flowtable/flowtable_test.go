package flowtable

import (
	"fmt"
	"net/netip"
	"os"
	"reflect"
	"runtime"
	"testing"
	"time"
	"unsafe"

	"srlb/internal/ipv6"
	"srlb/internal/packet"
)

var (
	backend1 = ipv6.MustAddr("2001:db8:5::1")
	backend2 = ipv6.MustAddr("2001:db8:5::2")
)

func key(i int) packet.FlowKey {
	return packet.FlowKey{
		Src:     ipv6.MustAddr(fmt.Sprintf("2001:db8:c::%x", i+1)),
		Dst:     ipv6.MustAddr("2001:db8:f00d::1"),
		SrcPort: uint16(40000 + i),
		DstPort: 80,
	}
}

func TestInsertLookup(t *testing.T) {
	tb := New(Config{})
	tb.Insert(0, key(1), backend1)
	got, ok := tb.Lookup(time.Second, key(1))
	if !ok || got != backend1 {
		t.Fatalf("lookup = %v, %v", got, ok)
	}
	if _, ok := tb.Lookup(time.Second, key(2)); ok {
		t.Fatal("missing key found")
	}
	st := tb.Stats()
	if st.Hits != 1 || st.Misses != 1 || st.Inserts != 1 {
		t.Fatalf("stats = %+v", st)
	}
}

func TestIdleTTLExpiry(t *testing.T) {
	tb := New(Config{})
	tb.Insert(0, key(1), backend1)
	if _, ok := tb.Lookup(IdleTTL-time.Second, key(1)); !ok {
		t.Fatal("entry expired too early")
	}
	// The lookup above refreshed the TTL: deadline is now 2·IdleTTL − 1s.
	if _, ok := tb.Lookup(2*IdleTTL-2*time.Second, key(1)); !ok {
		t.Fatal("TTL not refreshed by lookup")
	}
	if _, ok := tb.Lookup(4*IdleTTL, key(1)); ok {
		t.Fatal("entry survived past TTL")
	}
	if tb.Len() != 0 {
		t.Fatal("expired entry not removed")
	}
	if tb.Stats().Expiries != 1 {
		t.Fatal("expiry not counted")
	}
}

func TestReinsertRefreshes(t *testing.T) {
	tb := New(Config{})
	tb.Insert(0, key(1), backend1)
	tb.Insert(IdleTTL-2*time.Second, key(1), backend2) // rebind + refresh
	got, ok := tb.Lookup(2*IdleTTL-3*time.Second, key(1))
	if !ok || got != backend2 {
		t.Fatalf("lookup = %v %v, want backend2", got, ok)
	}
	if tb.Len() != 1 {
		t.Fatalf("len = %d", tb.Len())
	}
	if tb.Stats().Inserts != 1 {
		t.Fatal("re-insert should not count as a new insert")
	}
}

func TestMarkClosingLinger(t *testing.T) {
	tb := New(Config{})
	tb.Insert(0, key(1), backend1)
	tb.MarkClosing(time.Second, key(1))
	// Within linger: still steerable.
	if _, ok := tb.Lookup(FinLinger, key(1)); !ok {
		t.Fatal("entry gone during linger")
	}
	// Lookup during closing must NOT refresh the deadline.
	if _, ok := tb.Lookup(5*FinLinger, key(1)); ok {
		t.Fatal("closing entry survived past linger")
	}
}

func TestMarkClosingMissingKeyIsNoop(t *testing.T) {
	tb := New(Config{})
	tb.MarkClosing(0, key(9)) // must not panic
}

// An entry closer to its idle deadline than FinLinger keeps that
// deadline when marked closing.
func TestMarkClosingNeverExtends(t *testing.T) {
	tb := New(Config{})
	tb.Insert(0, key(1), backend1)
	tb.MarkClosing(IdleTTL-FinLinger/2, key(1))
	if _, ok := tb.Lookup(IdleTTL+FinLinger/4, key(1)); ok {
		t.Fatal("MarkClosing extended the entry lifetime")
	}
}

// Regression: Rebind used to ignore `now` and re-steer entries already
// past their deadline — a dead flow would move to a new backend instead
// of expiring. Expired entries must behave exactly as they do in
// Lookup: removed, counted, reported missing.
func TestRebindExpiredEntryIsMiss(t *testing.T) {
	tb := New(Config{})
	tb.Insert(0, key(1), backend1)
	if tb.Rebind(2*IdleTTL, key(1), backend2) {
		t.Fatal("Rebind re-steered an expired flow")
	}
	if tb.Len() != 0 {
		t.Fatal("expired entry not removed by Rebind")
	}
	st := tb.Stats()
	if st.Expiries != 1 || st.Rebinds != 0 {
		t.Fatalf("stats = %+v, want 1 expiry and 0 rebinds", st)
	}
	// And the entry is really gone, not merely skipped.
	if tb.Rebind(2*IdleTTL, key(1), backend2) {
		t.Fatal("rebind found a removed entry")
	}
}

func TestRebindLiveEntry(t *testing.T) {
	tb := New(Config{})
	tb.Insert(0, key(1), backend1)
	if !tb.Rebind(5*time.Second, key(1), backend2) {
		t.Fatal("rebind of a live entry failed")
	}
	got, ok := tb.Lookup(5*time.Second, key(1))
	if !ok || got != backend2 {
		t.Fatalf("lookup after rebind = %v, %v", got, ok)
	}
	if tb.Stats().Rebinds != 1 {
		t.Fatal("rebind not counted")
	}
}

// Regression: MarkClosing used to run its exactly-once transition on
// entries already past their deadline, so the caller's teardown
// bookkeeping fired for a flow whose state was gone.
func TestMarkClosingExpiredEntryIsMiss(t *testing.T) {
	tb := New(Config{})
	tb.Insert(0, key(1), backend1)
	if tb.MarkClosing(2*IdleTTL, key(1)) {
		t.Fatal("MarkClosing claimed exactly-once teardown for an expired flow")
	}
	if tb.Len() != 0 {
		t.Fatal("expired entry not removed by MarkClosing")
	}
	if st := tb.Stats(); st.Expiries != 1 {
		t.Fatalf("stats = %+v, want 1 expiry", st)
	}
}

// deleteKey removes the entry for key at once: the tests' and the
// model's way to reach remove without waiting for an expiry.
func (t *Table) deleteKey(key packet.FlowKey) {
	if id, _ := t.find(&key); id != 0 {
		t.remove(id)
	}
}

func TestDelete(t *testing.T) {
	tb := New(Config{})
	tb.Insert(0, key(1), backend1)
	tb.deleteKey(key(1))
	if tb.Len() != 0 {
		t.Fatal("delete failed")
	}
	if _, ok := tb.Lookup(0, key(1)); ok {
		t.Fatal("deleted entry resurrected")
	}
	tb.deleteKey(key(1)) // double delete is a no-op
}

func TestLRUEviction(t *testing.T) {
	tb := New(Config{MaxEntries: 3})
	tb.Insert(0, key(1), backend1)
	tb.Insert(0, key(2), backend1)
	tb.Insert(0, key(3), backend1)
	// Touch key(1) so key(2) is the LRU.
	tb.Lookup(time.Second, key(1))
	tb.Insert(2*time.Second, key(4), backend2)
	if tb.Len() != 3 {
		t.Fatalf("len = %d", tb.Len())
	}
	if _, ok := tb.Lookup(2*time.Second, key(2)); ok {
		t.Fatal("LRU entry not evicted")
	}
	for _, k := range []int{1, 3, 4} {
		if _, ok := tb.Lookup(2*time.Second, key(k)); !ok {
			t.Fatalf("key %d wrongly evicted", k)
		}
	}
	if tb.Stats().Evictions != 1 {
		t.Fatal("eviction not counted")
	}
}

func TestSweep(t *testing.T) {
	tb := New(Config{})
	for i := 0; i < 10; i++ {
		tb.Insert(0, key(i), backend1)
	}
	for i := 10; i < 15; i++ {
		tb.Insert(2*IdleTTL, key(i), backend1)
	}
	removed := tb.Sweep(3 * IdleTTL / 2)
	if removed != 10 {
		t.Fatalf("swept %d, want 10", removed)
	}
	if tb.Len() != 5 {
		t.Fatalf("len = %d, want 5", tb.Len())
	}
	if tb.Sweep(3*IdleTTL/2) != 0 {
		t.Fatal("second sweep should remove nothing")
	}
}

// TestGrowSweepRefill fills a table past several growth steps, checks
// every binding, sweeps it empty and refills it with other flows: the
// storage a table grew and then emptied must serve a second fill exactly
// like the first.
func TestGrowSweepRefill(t *testing.T) {
	const n = 5000
	tb := New(Config{MaxEntries: 2 * n})
	fill := func(now time.Duration, first int) {
		for i := first; i < first+n; i++ {
			tb.Insert(now, poolKey(i), poolBackend(i%8))
		}
		checkTable(t, tb)
		if tb.Len() != n {
			t.Fatalf("len = %d after filling %d flows", tb.Len(), n)
		}
		for i := first; i < first+n; i++ {
			if got, ok := tb.Lookup(now, poolKey(i)); !ok || got != poolBackend(i%8) {
				t.Fatalf("flow %d: lookup = %v, %v", i, got, ok)
			}
		}
		if _, ok := tb.Lookup(now, poolKey(first+n)); ok {
			t.Fatal("a flow never inserted was found")
		}
	}
	fill(0, 0)
	if got := tb.Sweep(IdleTTL + time.Second); got != n {
		t.Fatalf("sweep removed %d, want %d", got, n)
	}
	checkTable(t, tb)
	if tb.Len() != 0 || len(tb.Snapshot(IdleTTL+time.Second)) != 0 {
		t.Fatalf("len = %d after sweeping everything", tb.Len())
	}
	for i := 0; i < n; i++ {
		if _, ok := tb.Lookup(IdleTTL+time.Second, poolKey(i)); ok {
			t.Fatalf("swept flow %d still found", i)
		}
	}
	fill(2*IdleTTL, n)
	if st := tb.Stats(); st.Inserts != 2*n || st.Expiries != n || st.Evictions != 0 {
		t.Fatalf("stats = %+v", st)
	}
}

// TestSweepComplexityClass pins what a sweep costs: one that frees
// nothing stops at the LRU tail, so at 100k live in-order entries it must
// stay within 2x of its cost at 1k (a walk over every entry is ~100x).
// Timing is a min-over-rounds wall loop, too noisy for the ordinary test
// pass, so the test is gated behind SRLB_BENCH_CORE=1 like
// TestDispatchComplexityClass, and CI runs both in one step.
func TestSweepComplexityClass(t *testing.T) {
	if os.Getenv("SRLB_BENCH_CORE") == "" {
		t.Skip("set SRLB_BENCH_CORE=1 to run the complexity-class regression")
	}
	const (
		sweeps = 2000
		rounds = 11
		bound  = 2.0
	)
	measure := func(n int) (nsPerSweep float64) {
		tb := New(Config{})
		src := backend1.As16()
		for i := 0; i < n; i++ {
			src[12], src[13], src[14], src[15] = byte(i>>24), byte(i>>16), byte(i>>8), byte(i)
			k := packet.FlowKey{Src: netip.AddrFrom16(src), Dst: backend2, SrcPort: 40000, DstPort: 80}
			tb.Insert(time.Duration(i), k, backend1)
		}
		best := time.Duration(0)
		for round := 0; round < rounds; round++ {
			start := time.Now()
			for i := 0; i < sweeps; i++ {
				if tb.Sweep(time.Second) != 0 {
					t.Fatal("sweep freed a live entry")
				}
			}
			if d := time.Since(start); round == 0 || d < best {
				best = d
			}
		}
		return float64(best) / sweeps
	}
	small, large := measure(1000), measure(100000)
	t.Logf("sweep freeing nothing: 1k entries %.1f ns, 100k entries %.1f ns (ratio %.2f)", small, large, large/small)
	if large > bound*small {
		t.Errorf("a sweep at 100k entries costs %.1f ns, more than %.1fx its cost at 1k (%.1f ns) — Sweep walks live entries",
			large, bound, small)
	}
}

// flow is the i-th of up to 2^32 distinct flows over the pool's VIPs.
func flow(i int) packet.FlowKey {
	return packet.FlowKey{
		Src:     netip.AddrFrom16([16]byte{0x20, 0x01, 0x0d, 0xb8, 0, 0x0c, 12: byte(i >> 24), byte(i >> 16), byte(i >> 8), byte(i)}),
		Dst:     poolVIPs[i%len(poolVIPs)],
		SrcPort: uint16(40000 + i%16384),
		DstPort: 80,
	}
}

// hasPointers reports whether a value of type typ holds a Go pointer.
func hasPointers(typ reflect.Type) bool {
	switch typ.Kind() {
	case reflect.Array:
		return hasPointers(typ.Elem())
	case reflect.Struct:
		for i := range typ.NumField() {
			if hasPointers(typ.Field(i).Type) {
				return true
			}
		}
		return false
	case reflect.Pointer, reflect.UnsafePointer, reflect.Slice, reflect.Map, reflect.Chan,
		reflect.Func, reflect.Interface, reflect.String:
		return true
	}
	return false
}

// The per-flow storage is laid out like a data plane's: its element
// types hold no Go pointers, so the GC never scans it; an entry fits one
// 64-byte cache line; a warm table is a fixed number of heap objects
// however many flows it holds; and Lookup and Insert allocate nothing
// once the table is warm.
func TestEntryLayout(t *testing.T) {
	table := reflect.TypeOf(Table{})
	for _, name := range []string{"index", "ents", "side"} {
		f, _ := table.FieldByName(name)
		if hasPointers(f.Type.Elem()) {
			t.Errorf("Table.%s's element type %v holds Go pointers", name, f.Type.Elem())
		}
	}
	if size := unsafe.Sizeof(entry{}); size > 64 {
		t.Errorf("entry is %d bytes, past one 64-byte line", size)
	}

	objects := func(n int) (int64, *Table) {
		var before, after runtime.MemStats
		runtime.GC()
		runtime.ReadMemStats(&before)
		tb := New(Config{})
		for i := 0; i < n; i++ {
			tb.Insert(0, flow(i), poolBackend(i%8))
		}
		runtime.GC()
		runtime.ReadMemStats(&after)
		return int64(after.HeapObjects) - int64(before.HeapObjects), tb
	}
	small, _ := objects(1000)
	large, tb := objects(100000)
	t.Logf("heap objects held: %d at 1k flows, %d at 100k", small, large)
	if large > small+32 {
		t.Errorf("a table of 100k flows holds %d heap objects, one of 1k holds %d: storage is per flow", large, small)
	}

	now := time.Second
	allocs := testing.AllocsPerRun(10, func() {
		for i := 0; i < 1000; i++ {
			tb.deleteKey(flow(i))
			tb.Insert(now, flow(i), poolBackend(i%8))
			tb.Insert(now, flow(i+1000), poolBackend(i%8))
			tb.Lookup(now, flow(i))
			tb.LookupIdle(now, flow(i+2000))
		}
	})
	if allocs != 0 {
		t.Errorf("warm deleteKey/Insert/Lookup allocate %.1f times per 1000 rounds", allocs)
	}
}

func TestDefaultsApplied(t *testing.T) {
	tb := New(Config{})
	if tb.cfg.MaxEntries != 1<<20 {
		t.Fatalf("defaults = %+v", tb.cfg)
	}
}

func TestManyFlowsChurn(t *testing.T) {
	tb := New(Config{MaxEntries: 100})
	now := time.Duration(0)
	for i := 0; i < 10000; i++ {
		now += time.Millisecond
		tb.Insert(now, key(i%500), backend1)
		if i%3 == 0 {
			tb.Lookup(now, key((i-50+500)%500))
		}
		if tb.Len() > 100 {
			t.Fatalf("table exceeded MaxEntries: %d", tb.Len())
		}
	}
	st := tb.Stats()
	if st.Evictions == 0 {
		t.Fatal("expected evictions under churn")
	}
}

func BenchmarkInsertLookup(b *testing.B) {
	tb := New(Config{MaxEntries: 1 << 16})
	keys := make([]packet.FlowKey, 1024)
	for i := range keys {
		keys[i] = key(i)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		k := keys[i&1023]
		tb.Insert(time.Duration(i), k, backend1)
		tb.Lookup(time.Duration(i), k)
	}
}
