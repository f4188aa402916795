package testbed

import (
	"reflect"
	"runtime"
	"testing"
)

// perServerBound is what Build may allocate per added server at 500
// VIPs a pool: 50 % over the ≈ 29.6 KB it takes (the router, its
// application model, one demand function per VIP). A server that copied
// its pool's VIPs into its own slice and maps took ≈ 120 KB.
const perServerBound = 44_400

// Server VIP state is per pool: every router of a pool holds the pool's
// one VIP table, and what Build allocates per added server, at 2,000
// VIPs over 4 pools going from 4 to 16 servers a pool, stays within
// perServerBound.
func TestServerVIPStateIsPerPool(t *testing.T) {
	build := func(servers int) (*Testbed, uint64) {
		top := GenerateTopology(GenSpec{Seed: 1, VIPs: 2000, Pools: 4, ServersPerPool: servers})
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		tb := Build(top)
		runtime.ReadMemStats(&after)
		return tb, after.TotalAlloc - before.TotalAlloc
	}
	small, smallBytes := build(4)
	big, bigBytes := build(16)
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
