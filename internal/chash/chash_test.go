package chash

import (
	"fmt"
	"testing"
)

func names(n int) []string {
	out := make([]string, n)
	for i := range out {
		out[i] = fmt.Sprintf("server-%d", i)
	}
	return out
}

func TestMaglevErrors(t *testing.T) {
	if _, err := NewMaglev(nil, 101); err == nil {
		t.Fatal("empty backends accepted")
	}
	if _, err := NewMaglev([]string{"a", "a"}, 101); err == nil {
		t.Fatal("duplicate backends accepted")
	}
	if _, err := NewMaglev(names(200), 101); err == nil {
		t.Fatal("table smaller than backends accepted")
	}
}

func TestMaglevDefaultTableSize(t *testing.T) {
	m, err := NewMaglev(names(3), 0)
	if err != nil {
		t.Fatal(err)
	}
	if m.m != DefaultTableSize || len(m.table) != DefaultTableSize {
		t.Fatalf("table size = %d (%d slots)", m.m, len(m.table))
	}
}

func TestMaglevBalance(t *testing.T) {
	m, err := NewMaglev(names(12), 65537)
	if err != nil {
		t.Fatal(err)
	}
	dist := make(map[string]int) // slots each backend owns
	for _, idx := range m.table {
		dist[m.backends[idx]]++
	}
	ideal := 65537.0 / 12
	for b, got := range dist {
		dev := (float64(got) - ideal) / ideal
		if dev < -0.02 || dev > 0.02 {
			t.Fatalf("backend %s owns %d slots, ideal %.0f (dev %.3f)", b, got, ideal, dev)
		}
	}
}

func TestMaglevLookupDeterministic(t *testing.T) {
	a, _ := NewMaglev(names(12), 65537)
	b, _ := NewMaglev(names(12), 65537)
	for i := 0; i < 1000; i++ {
		key := fmt.Sprintf("flow-%d", i)
		if a.Lookup(key) != b.Lookup(key) {
			t.Fatal("lookup not deterministic across instances")
		}
	}
}

func TestMaglevLookupSpread(t *testing.T) {
	m, _ := NewMaglev(names(12), 65537)
	counts := make(map[string]int)
	const n = 120000
	for i := 0; i < n; i++ {
		counts[m.Lookup(fmt.Sprintf("flow-%d", i))]++
	}
	for b, c := range counts {
		frac := float64(c) / n
		if frac < 0.06 || frac > 0.11 { // ideal 1/12 ≈ 0.083
			t.Fatalf("backend %s got %.3f of flows", b, frac)
		}
	}
}

// TestMaglevMinimalDisruption: removing one backend must only remap the
// keys that pointed at it (plus a small repopulation epsilon).
func TestMaglevMinimalDisruption(t *testing.T) {
	before, _ := NewMaglev(names(12), 65537)
	after, _ := NewMaglev(names(11), 65537) // server-11 removed

	const n = 20000
	moved := 0
	belongedToRemoved := 0
	for i := 0; i < n; i++ {
		key := fmt.Sprintf("flow-%d", i)
		b := before.Lookup(key)
		a := after.Lookup(key)
		if b == "server-11" {
			belongedToRemoved++
			continue // must move by necessity
		}
		if a != b {
			moved++
		}
	}
	// Maglev guarantees "mostly minimal" disruption; NSDI'16 reports ~1%
	// extra churn at this table-size ratio. Allow 3%.
	if frac := float64(moved) / n; frac > 0.03 {
		t.Fatalf("%.4f of stable keys moved, want ≤0.03", frac)
	}
	if belongedToRemoved == 0 {
		t.Fatal("sanity: no keys mapped to the removed backend?")
	}
}

func TestMaglevLookup2Distinct(t *testing.T) {
	m, _ := NewMaglev(names(12), 65537)
	for i := 0; i < 1000; i++ {
		a, b := m.Lookup2(fmt.Sprintf("flow-%d", i))
		if a == b {
			t.Fatalf("Lookup2 returned identical candidates %q", a)
		}
	}
}

func TestMaglevLookup2SingleBackend(t *testing.T) {
	m, _ := NewMaglev([]string{"only"}, 101)
	a, b := m.Lookup2("flow")
	if a != "only" || b != "only" {
		t.Fatalf("single backend Lookup2 = %q, %q", a, b)
	}
}

func TestMaglevLookup2PrimaryMatchesLookup(t *testing.T) {
	m, _ := NewMaglev(names(5), 4099)
	for i := 0; i < 500; i++ {
		key := fmt.Sprintf("k%d", i)
		a, _ := m.Lookup2(key)
		if a != m.Lookup(key) {
			t.Fatal("Lookup2 primary differs from Lookup")
		}
	}
}

// The table keeps its own copy of the member list: a caller reusing its
// slice cannot redirect lookups.
func TestMaglevBackendsCopy(t *testing.T) {
	b := names(3)
	m, _ := NewMaglev(b, 101)
	b[0], b[1], b[2] = "mutated", "mutated", "mutated"
	for i := 0; i < 100; i++ {
		if got := m.Lookup(fmt.Sprintf("k%d", i)); got == "mutated" {
			t.Fatal("mutating the caller's slice changed a lookup")
		}
	}
}

func TestHash64Stable(t *testing.T) {
	// FNV-1a of "abc" is a published constant.
	if Hash64("abc") != 0xe71fa2190541574b {
		t.Fatalf("Hash64(abc) = %#x", Hash64("abc"))
	}
}

func BenchmarkMaglevLookup(b *testing.B) {
	m, _ := NewMaglev(names(12), 65537)
	b.ReportAllocs()
	keys := make([]string, 1024)
	for i := range keys {
		keys[i] = fmt.Sprintf("flow-%d", i)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		m.Lookup(keys[i&1023])
	}
}

func BenchmarkMaglevBuild12(b *testing.B) {
	ns := names(12)
	for i := 0; i < b.N; i++ {
		if _, err := NewMaglev(ns, 65537); err != nil {
			b.Fatal(err)
		}
	}
}
