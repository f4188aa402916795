package testbed

import (
	"encoding/binary"
	"hash/fnv"
	"net/netip"
	"testing"
	"time"

	"srlb/internal/rng"
	"srlb/internal/selection"
)

// testFallback is a deterministic consistent-hash miss-fallback for the
// parity topology (anycast replicas need one to agree on flows they never
// learned).
func testFallback(servers []netip.Addr) selection.Scheme {
	s, err := selection.NewConsistentHash(servers, 4099)
	if err != nil {
		panic(err)
	}
	return s
}

// legacyParityDigest drives a representative two-pool topology — two
// VIPs, each over its own pool, two anycast LB replicas, a full
// lifecycle schedule — and folds every client-observed Result into one
// FNV-1a digest. The workload mixes both VIPs and random demands so that
// any perturbation of the compiler's random streams, address allocation
// or event ordering shows up in the hash.
func legacyParityDigest() uint64 {
	tb := Build(Topology{
		Seed:     101,
		Replicas: 2,
		Pools: []PoolSpec{
			{Servers: 4},
			{Servers: 3},
		},
		VIPs: []VIPSpec{
			{Fallback: testFallback},
			{Pool: 1, Fallback: testFallback},
		},
		Events: []Event{
			AddServer(80*time.Millisecond, 0),
			DrainServer(200*time.Millisecond, 0, 1),
			failServer(320*time.Millisecond, 1, 0),
			FailReplica(400*time.Millisecond, 1),
			RecoverReplica(520*time.Millisecond, 1),
		},
	})
	results := collect(tb)
	r := rng.Split(101, 0xd1ce)
	p := rng.NewPoisson(rng.Split(101, 0xa17), 900, 0)
	for i := 0; i < 1200; i++ {
		at := p.Next()
		q := Query{ID: uint64(i), Demand: rng.Exp(r, 12*time.Millisecond)}
		if i%3 == 1 {
			q.VIP = tb.VIPAddrOf(1)
		}
		tb.Sim.At(at, func() { tb.Gen.Launch(q) })
	}
	tb.Sim.Run()
	tb.Gen.DrainPending()
	return resultsDigest(*results)
}

// resultsDigest folds client-observed Results into one FNV-1a digest —
// the parity fingerprint both the legacy and the generated-topology
// pins use.
func resultsDigest(results []Result) uint64 {
	h := fnv.New64a()
	var buf [8]byte
	put := func(v uint64) {
		binary.BigEndian.PutUint64(buf[:], v)
		h.Write(buf[:])
	}
	for _, res := range results {
		put(res.ID)
		put(uint64(res.IssuedAt))
		put(uint64(res.RT))
		bits := uint64(0)
		if res.OK {
			bits |= 1
		}
		if res.Refused {
			bits |= 2
		}
		put(bits)
		a := res.VIP.As16()
		h.Write(a[:])
	}
	return h.Sum64()
}

// The digest below was recorded against the first compiler, where each
// VIP carried its own pool. Declaring those pools in Topology.Pools must
// reproduce it bit for bit — addresses, selection draws, event ordering
// and all.
func TestImplicitPoolCompiledParity(t *testing.T) {
	const want = uint64(0x4c2ba3c497d4c92b)
	if got := legacyParityDigest(); got != want {
		t.Fatalf("legacy topology digest = %#x, want %#x — the pool refactor perturbed the compiled streams", got, want)
	}
}
