package selection

import (
	"fmt"
	"hash/fnv"
	"math"
	"net/netip"
	"slices"
	"testing"
	"time"

	"srlb/internal/ipv6"
	"srlb/internal/packet"
	"srlb/internal/rng"
)

func servers(n int) []netip.Addr {
	out := make([]netip.Addr, n)
	for i := range out {
		out[i] = ipv6.MustAddr(fmt.Sprintf("2001:db8:5::%x", i+1))
	}
	return out
}

func flow(i int) packet.FlowKey {
	return packet.FlowKey{
		Src:     ipv6.MustAddr(fmt.Sprintf("2001:db8:c::%x", i%200+1)),
		Dst:     ipv6.MustAddr("2001:db8:f00d::1"),
		SrcPort: uint16(1024 + i),
		DstPort: 80,
	}
}

func TestRandomDistinctCandidates(t *testing.T) {
	s := NewRandom(servers(12), 2, rng.New(1))
	for i := 0; i < 5000; i++ {
		picks := s.Pick(flow(i))
		if len(picks) != 2 {
			t.Fatalf("len = %d", len(picks))
		}
		if picks[0] == picks[1] {
			t.Fatal("candidates must be distinct")
		}
	}
}

func TestRandomUniformity(t *testing.T) {
	srv := servers(12)
	s := NewRandom(srv, 2, rng.New(2))
	counts := make(map[netip.Addr]int)
	const n = 60000
	for i := 0; i < n; i++ {
		for _, a := range s.Pick(flow(i)) {
			counts[a]++
		}
	}
	// Each server should appear in ≈ n*2/12 lists.
	want := float64(n) * 2 / 12
	for _, a := range srv {
		got := float64(counts[a])
		if math.Abs(got-want)/want > 0.05 {
			t.Fatalf("server %v picked %v times, want ≈%v", a, got, want)
		}
	}
}

func TestRandomFirstPositionUniform(t *testing.T) {
	srv := servers(6)
	s := NewRandom(srv, 2, rng.New(3))
	first := make(map[netip.Addr]int)
	const n = 60000
	for i := 0; i < n; i++ {
		first[s.Pick(flow(i))[0]]++
	}
	want := float64(n) / 6
	for _, a := range srv {
		got := float64(first[a])
		if math.Abs(got-want)/want > 0.05 {
			t.Fatalf("server %v first %v times, want ≈%v", a, got, want)
		}
	}
}

func TestRandomK1(t *testing.T) {
	s := NewRandom(servers(4), 1, rng.New(4))
	if s.Name() != "random1" {
		t.Fatalf("name = %q", s.Name())
	}
	if len(s.Pick(flow(0))) != 1 {
		t.Fatal("k=1 must return one server")
	}
}

func TestRandomPanics(t *testing.T) {
	for _, tc := range []struct {
		n, k int
	}{{3, 0}, {2, 3}} {
		func() {
			defer func() {
				if recover() == nil {
					t.Fatalf("n=%d k=%d should panic", tc.n, tc.k)
				}
			}()
			NewRandom(servers(tc.n), tc.k, rng.New(1))
		}()
	}
}

func TestRoundRobinCycles(t *testing.T) {
	srv := servers(4)
	s := NewRoundRobin(srv, 2)
	if s.Name() != "roundrobin2" {
		t.Fatalf("name = %q", s.Name())
	}
	counts := make(map[netip.Addr]int)
	for i := 0; i < 8; i++ {
		picks := s.Pick(flow(i))
		if len(picks) != 2 || picks[0] == picks[1] {
			t.Fatalf("bad picks %v", picks)
		}
		counts[picks[0]]++
	}
	// After 8 picks over 4 servers, each led exactly twice.
	for _, a := range srv {
		if counts[a] != 2 {
			t.Fatalf("server %v led %d times, want 2", a, counts[a])
		}
	}
}

func TestConsistentHashStability(t *testing.T) {
	s, err := NewConsistentHash(servers(12), 4099)
	if err != nil {
		t.Fatal(err)
	}
	if s.Name() != "chash2" {
		t.Fatalf("name = %q", s.Name())
	}
	for i := 0; i < 200; i++ {
		f := flow(i)
		a := slices.Clone(s.Pick(f)) // Pick's result is scratch: the next Pick overwrites it
		b := s.Pick(f)
		if len(a) != 2 || a[0] != b[0] || a[1] != b[1] {
			t.Fatal("consistent hash must be deterministic per flow")
		}
		if a[0] == a[1] {
			t.Fatal("candidates must be distinct")
		}
	}
}

func TestConsistentHashSpread(t *testing.T) {
	srv := servers(12)
	s, err := NewConsistentHash(srv, 65537)
	if err != nil {
		t.Fatal(err)
	}
	counts := make(map[netip.Addr]int)
	const n = 60000
	for i := 0; i < n; i++ {
		counts[s.Pick(flow(i * 7))[0]]++
	}
	want := float64(n) / 12
	for _, a := range srv {
		got := float64(counts[a])
		if math.Abs(got-want)/want > 0.25 {
			t.Fatalf("server %v primary for %v flows, want ≈%v", a, got, want)
		}
	}
}

func TestConsistentHashSingleServer(t *testing.T) {
	s, err := NewConsistentHash(servers(1), 101)
	if err != nil {
		t.Fatal(err)
	}
	picks := s.Pick(flow(0))
	if len(picks) != 1 {
		t.Fatalf("single-server pick = %v", picks)
	}
}

func BenchmarkRandomPick2(b *testing.B) {
	s := NewRandom(servers(12), 2, rng.New(1))
	f := flow(0)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		s.Pick(f)
	}
}

func BenchmarkConsistentHashPick(b *testing.B) {
	s, _ := NewConsistentHash(servers(12), 65537)
	f := flow(0)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		s.Pick(f)
	}
}

// TestWarmPickAllocatesNothing: every scheme on the claimed path answers
// from its own scratch — a Pick, and a Flowlet re-steer decision at a
// flowlet boundary, cost no heap object. (ConsistentHash still builds
// its key string; it is the post-failure fallback, not the SYN path.)
func TestWarmPickAllocatesNothing(t *testing.T) {
	srv := servers(12)
	loads := make([]float64, len(srv))
	for i := range loads {
		loads[i] = float64(i) / 16
	}
	view := loadsView(srv, loads...)
	f := flow(1)
	random, rr := NewRandom(srv, 2, rng.New(1)), NewRoundRobin(srv, 2)
	wll := NewWeightedLeastLoad(srv, 2, rng.New(2), view)
	flowlet := NewFlowlet(srv, 0, rng.New(3), view)
	for name, pick := range map[string]func(){
		"Random":            func() { random.Pick(f) },
		"RoundRobin":        func() { rr.Pick(f) },
		"WeightedLeastLoad": func() { wll.Pick(f) },
		"Flowlet":           func() { flowlet.Pick(f) },
		"Flowlet.Resteer":   func() { flowlet.Resteer(time.Second, f, 2*DefaultFlowletGap, srv[11]) },
	} {
		if n := testing.AllocsPerRun(100, pick); n != 0 {
			t.Errorf("%s: %v allocs per warm call, want 0", name, n)
		}
	}
	if _, moved := flowlet.Resteer(time.Second, f, 2*DefaultFlowletGap, srv[11]); !moved {
		t.Fatal("the timed re-steer never moved its flow off the most loaded server")
	}
}

// TestPickResultIsACopy: what Pick hands out is scratch, not the
// scheme's state. A caller may reorder it (WeightedLeastLoad does) without
// changing any later draw, and building a scheme costs no allocation
// beyond the struct and its one array.
func TestPickResultIsACopy(t *testing.T) {
	srv := servers(12)
	ref, scrambled := NewRandom(srv, 3, rng.New(5)), NewRandom(srv, 3, rng.New(5))
	for i := 0; i < 500; i++ {
		want, got := ref.Pick(flow(i)), scrambled.Pick(flow(i))
		if !slices.Equal(got, want) {
			t.Fatalf("draw %d: %v after the caller reordered earlier results, want %v", i, got, want)
		}
		slices.Reverse(got)
	}
	for name, build := range map[string]func(){
		"NewRandom":     func() { NewRandom(srv, 2, nil) },
		"NewRoundRobin": func() { NewRoundRobin(srv, 2) },
	} {
		if n := testing.AllocsPerRun(100, build); n > 2 {
			t.Errorf("%s: %v allocs, want ≤ 2 (the scheme and one array)", name, n)
		}
	}
}

// pickSequenceDigests are the FNV-64a digests of 10,000 Pick results per
// scheme, k and pool size, as pickDigest reads them.
var pickSequenceDigests = map[string]uint64{
	"random k=1 n=2":      0x1c9464485d26eaac,
	"random k=2 n=2":      0x66fa641800dfac25,
	"random k=1 n=12":     0x580595ae4f7b4f03,
	"random k=2 n=12":     0x39ab73c772e2a82,
	"random k=3 n=12":     0x6f239300f0b8dbfa,
	"random k=1 n=40":     0x5f9a14068ad6beaa,
	"random k=2 n=40":     0x402250b511617f25,
	"random k=3 n=40":     0xae1824efb89100c3,
	"roundrobin k=1 n=2":  0x1bb250214b225605,
	"roundrobin k=2 n=2":  0xaee843a9bfa3af65,
	"roundrobin k=1 n=12": 0x1584b2e6dee8c45,
	"roundrobin k=2 n=12": 0xf6263cef2f01ca79,
	"roundrobin k=3 n=12": 0xb5531c2b472443f9,
	"roundrobin k=1 n=40": 0x9f32642b6f0a4a45,
	"roundrobin k=2 n=40": 0xaf4cb7ef898b26e5,
	"roundrobin k=3 n=40": 0x301621a9f10b2505,
}

// pickDigest hashes every address of 10,000 Pick results in order.
func pickDigest(s Scheme) uint64 {
	h := fnv.New64a()
	f := flow(0)
	for i := 0; i < 10_000; i++ {
		for _, a := range s.Pick(f) {
			h.Write(a.AsSlice())
		}
	}
	return h.Sum64()
}

// TestPickSequencePinned: how a scheme keeps its state between draws is
// free, what it hands out is not. Random (on the stream seeded with n and
// k) and RoundRobin each produce a pinned sequence for k = 1, 2, 3 over
// 2, 12 and 40 servers, and neither writes the list it was given.
func TestPickSequencePinned(t *testing.T) {
	for _, n := range []int{2, 12, 40} {
		for k := 1; k <= min(3, n); k++ {
			srv := servers(n)
			for name, s := range map[string]Scheme{
				"random":     NewRandom(srv, k, rng.New(uint64(100*n+k))),
				"roundrobin": NewRoundRobin(srv, k),
			} {
				key := fmt.Sprintf("%s k=%d n=%d", name, k, n)
				if got, want := pickDigest(s), pickSequenceDigests[key]; got != want {
					t.Errorf("%s: digest %#x, want %#x", key, got, want)
				}
			}
			if !slices.Equal(srv, servers(n)) {
				t.Errorf("n=%d k=%d: a scheme wrote the server list it was given", n, k)
			}
		}
	}
}
