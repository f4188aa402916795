package experiments

import (
	"strings"
	"testing"
)

// TestHeteroSheddingToFastServers: on a mixed cluster, Service Hunting
// must route load away from slow boxes (they refuse more offers), while
// random assignment keeps feeding them — so SRc both beats RR on response
// time AND serves a slow-box share closer to the capacity share.
func TestHeteroSheddingToFastServers(t *testing.T) {
	res := RunHetero(HeteroConfig{
		Base: Base{Cluster: ClusterConfig{Seed: 31, Servers: 6}, Queries: 8000},
	})
	if len(res.Rows) != 3 {
		t.Fatalf("rows = %d", len(res.Rows))
	}
	rr := res.Rows[0]
	sr := res.Rows[1]
	if rr.Policy != "RR" || sr.Policy != "SR 4" {
		t.Fatalf("row order: %s/%s", rr.Policy, sr.Policy)
	}
	if sr.Mean >= rr.Mean {
		t.Fatalf("SR4 (%v) not better than RR (%v) on heterogeneous cluster", sr.Mean, rr.Mean)
	}
	// RR assigns uniformly: slow boxes (1/3 of servers) serve ≈1/3 of
	// queries despite holding only CapacityShare (1/5) of the capacity.
	if rr.SlowShare < res.CapacityShare {
		t.Fatalf("RR slow share %.3f below capacity share %.3f — unexpected", rr.SlowShare, res.CapacityShare)
	}
	// Hunting sheds load: the slow share must sit strictly below RR's.
	if sr.SlowShare >= rr.SlowShare {
		t.Fatalf("SR4 slow share %.3f not below RR's %.3f", sr.SlowShare, rr.SlowShare)
	}

	tsv := render(t, res.TSV())
	if !strings.Contains(tsv, "heterogeneous") {
		t.Fatal("TSV header missing")
	}
}
