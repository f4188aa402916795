package experiments

import (
	"context"
	"fmt"
	"net/netip"
	"slices"
	"testing"
	"time"

	"srlb/internal/ipv6"
	"srlb/internal/testbed"
)

// cellServerAddrs builds w's testbed on cluster and returns every server
// address in construction order. The run is cancelled before the first
// arrival: only the compiled cluster is observed.
func cellServerAddrs(w MultiServiceWorkload, cluster ClusterConfig) []netip.Addr {
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	var got []netip.Addr
	w.run(ctx, cluster, RR(), 1, PoissonHooks{Testbed: func(tb *testbed.Testbed, _ time.Duration) {
		for _, rt := range tb.Routers {
			got = append(got, rt.Addr())
		}
		cancel()
	}})
	return got
}

// poolServer is server i of the k-th pool of a cell: 2001:db8:5:<k>::<i+1>.
func poolServer(k, i int) netip.Addr {
	return ipv6.MustAddr(fmt.Sprintf("2001:db8:5:%x::%x", k, i+1))
}

// The server addresses the production cells compile to. Consistent
// hashing (chash2, the Maglev fallback) hashes them, so a cell whose
// addresses move changes its artifacts.
func TestCellServerAddresses(t *testing.T) {
	cluster := ClusterConfig{Seed: 1}.withDefaults()

	// The one-service cell: the paper's cluster at ServerAddr(i).
	var want []netip.Addr
	for i := 0; i < cluster.Servers; i++ {
		if testbed.ServerAddr(i) != poolServer(0, i) {
			t.Fatalf("ServerAddr(%d) = %v, want %v", i, testbed.ServerAddr(i), poolServer(0, i))
		}
		want = append(want, testbed.ServerAddr(i))
	}
	if got := cellServerAddrs(OneService(PoissonService{Lambda0: 100, Queries: 10}), cluster); !slices.Equal(got, want) {
		t.Fatalf("one-service cell servers = %v, want %v", got, want)
	}

	// RunMultiService's cell: pool v (web, wiki, batch) on its own /64.
	cfg := MultiServiceConfig{Base: Base{Cluster: cluster, Lambda0: 100, Queries: 10}, Compression: 288}
	want = want[:0]
	for v, n := range []int{12, 12, 6} {
		for i := 0; i < n; i++ {
			want = append(want, poolServer(v, i))
		}
	}
	if got := cellServerAddrs(multiServiceWorkload(cfg), cluster); !slices.Equal(got, want) {
		t.Fatalf("multi-service cell servers = %v, want %v", got, want)
	}

	// The shared-pool cell (interference, policies, rhogrid): its one
	// pool is pool 0, the paper cluster's addresses.
	want = want[:0]
	for i := 0; i < cluster.Servers; i++ {
		want = append(want, poolServer(0, i))
	}
	shared := sharedPoolWorkload(PoissonService{Lambda0: 100, Queries: 10}, time.Second, batchPeak)
	if got := cellServerAddrs(shared, cluster); !slices.Equal(got, want) {
		t.Fatalf("shared-pool cell servers = %v, want %v", got, want)
	}

	// A generated topology (vipscale, the dispatch benchmark): pool p
	// under the same rule, whatever VIPs select over it.
	tb := testbed.Build(testbed.GenerateTopology(testbed.GenSpec{Seed: 1, VIPs: 10, Pools: 3, ServersPerPool: 4}))
	want = want[:0]
	for p := 0; p < 3; p++ {
		for i := 0; i < 4; i++ {
			want = append(want, poolServer(p, i))
		}
	}
	var got []netip.Addr
	for _, rt := range tb.Routers {
		got = append(got, rt.Addr())
	}
	if !slices.Equal(got, want) {
		t.Fatalf("generated topology servers = %v, want %v", got, want)
	}
	for p := 0; p < 3; p++ {
		if a := testbed.SharedPoolServerAddr(p, 3); a != poolServer(p, 3) {
			t.Fatalf("SharedPoolServerAddr(%d, 3) = %v, want %v", p, a, poolServer(p, 3))
		}
	}
}
