package testbed

import (
	"reflect"
	"runtime"
	"testing"

	"srlb/internal/selection"
)

// perServerBound is what Build may allocate per added server at 500
// VIPs a pool: 50 % over the ≈ 6.9 KB it takes (the router, its
// application model, one demand function per VIP). A server that copied
// its pool's VIPs into its own slice and maps took ≈ 120 KB, and one
// whose pool every VIP's scheme copied ≈ 29.6 KB.
const perServerBound = 10_400

// perVIPBound is what Build may allocate per added VIP over 4 pools of
// 12 servers: ≈ 990 B (the VIP's scheme with its index permutation, its
// demand function and its share of the tables), and a scheme that copied
// its pool took ≈ 1,520 B.
const perVIPBound = 1_150

// buildAlloc builds a generated topology and returns it with the bytes
// Build allocated.
func buildAlloc(spec GenSpec) (*Testbed, uint64) {
	top := GenerateTopology(spec)
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	tb := Build(top)
	runtime.ReadMemStats(&after)
	return tb, after.TotalAlloc - before.TotalAlloc
}

// Server VIP state is per pool: every router of a pool holds the pool's
// one VIP table, and what Build allocates per added server, at 2,000
// VIPs over 4 pools going from 4 to 16 servers a pool, stays within
// perServerBound.
func TestServerVIPStateIsPerPool(t *testing.T) {
	small, smallBytes := buildAlloc(GenSpec{Seed: 1, VIPs: 2000, Pools: 4, ServersPerPool: 4})
	big, bigBytes := buildAlloc(GenSpec{Seed: 1, VIPs: 2000, Pools: 4, ServersPerPool: 16})
	perServer := float64(bigBytes-smallBytes) / (4 * 12)
	t.Logf("Build allocates %.0f bytes per added server", perServer)
	if perServer > perServerBound {
		t.Errorf("Build allocates %.0f bytes per added server, bound %d", perServer, perServerBound)
	}
	for _, tb := range []*Testbed{small, big} {
		for p, pool := range tb.pools {
			for i, slot := range pool.all {
				cfg := reflect.ValueOf(slot.router).Elem().FieldByName("cfg")
				if got := cfg.FieldByName("VIPs").Pointer(); got != reflect.ValueOf(pool.vipTab).Pointer() {
					t.Fatalf("pool %d, server %d: the router holds its own VIP table", p, i)
				}
			}
			for v, vs := range pool.vips {
				if id, ok := pool.vipTab.Lookup(vs.addr); !ok || int(id) != v {
					t.Fatalf("pool %d: VIP %v at %d, %v in the table, want %d", p, vs.addr, id, ok, v)
				}
			}
		}
	}
}

// Selection state is per pool too: every VIP's random scheme reads its
// pool's own server array, and what Build
// allocates per added VIP, going from 2,000 to 4,000 VIPs over 4 pools
// of 12 servers, stays within perVIPBound.
func TestSchemeStateIsPerPool(t *testing.T) {
	small, smallBytes := buildAlloc(GenSpec{Seed: 1, VIPs: 2000, Pools: 4, ServersPerPool: 12})
	_, bigBytes := buildAlloc(GenSpec{Seed: 1, VIPs: 4000, Pools: 4, ServersPerPool: 12})
	perVIP := float64(bigBytes-smallBytes) / 2000
	t.Logf("Build allocates %.0f bytes per added VIP", perVIP)
	if perVIP > perVIPBound {
		t.Errorf("Build allocates %.0f bytes per added VIP, bound %d", perVIP, perVIPBound)
	}
	for _, rs := range small.replicas {
		for v, vs := range small.vips {
			r, ok := rs.schemes[v].(*selection.Random)
			if !ok {
				t.Fatalf("VIP %d's scheme is a %T, want *selection.Random", v, rs.schemes[v])
			}
			got := reflect.ValueOf(r).Elem().FieldByName("servers").Pointer()
			if got != reflect.ValueOf(vs.pool.pool).Pointer() {
				t.Fatalf("VIP %d: the scheme holds its own copy of pool %d's servers", v, vs.pool.index)
			}
		}
	}
}
