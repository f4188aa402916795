package experiments

import (
	"context"
	"fmt"
	"io"

	"srlb/internal/appserver"
	"srlb/internal/stats"
)

// HeteroConfig studies a heterogeneous cluster — a natural extension the
// paper's design accommodates for free: the acceptance decision is a
// *local* busy-thread threshold, so a slow box (fewer cores) simply
// crosses its threshold earlier and refuses more offers, shedding load to
// faster boxes. A random balancer, blind to capacity, keeps feeding the
// slow boxes.
type HeteroConfig struct {
	Base
	// SlowFraction of the servers get SlowCores instead of the default
	// (defaults: 1/3 of the cluster at 1 core vs the usual 2).
	SlowFraction float64
	SlowCores    float64
	// Rho is computed against the HETEROGENEOUS capacity (default 0.85).
	Rho float64
}

// HeteroRow is one policy's ServiceRow on the mixed cluster plus the
// slow boxes' share of the work.
type HeteroRow struct {
	ServiceRow
	// SlowShare is the fraction of total completions served by slow boxes
	// (capacity-proportional would equal slow capacity share).
	SlowShare, SlowShareCI95 float64
}

// HeteroResult compares policies on the mixed cluster.
type HeteroResult struct {
	Rho           float64
	SlowServers   int
	TotalServers  int
	CapacityShare float64 // slow boxes' share of total capacity
	Seeds         []uint64
	Rows          []HeteroRow
}

// RunHetero executes RR, SR4 and SRdyn on the mixed cluster — a study of
// the three policies whose cluster carries a ServerOverride, with the
// slow-box completion share read from the workload's PoissonStats.
func RunHetero(cfg HeteroConfig) HeteroResult {
	// No λ0 here: load is normalized by the mixed cluster's theoretical
	// capacity, so the study runs no calibration probe.
	cfg.Base = cfg.Base.withDefaults()
	if cfg.SlowFraction == 0 {
		cfg.SlowFraction = 1.0 / 3
	}
	if cfg.SlowCores == 0 {
		cfg.SlowCores = 1
	}
	if cfg.Rho == 0 {
		cfg.Rho = 0.85
	}
	servers := cfg.Cluster.Servers
	slow := int(float64(servers) * cfg.SlowFraction)
	fastCores := cfg.Cluster.Server.Cores
	totalCores := float64(servers-slow)*fastCores + float64(slow)*cfg.SlowCores
	capacity := totalCores / MeanDemand.Seconds()

	slowCfg := cfg.Cluster.Server
	slowCfg.Cores = cfg.SlowCores
	cluster := cfg.Cluster
	cluster.ServerOverride = func(i int) appserver.Config {
		if i < slow {
			return slowCfg
		}
		return appserver.Config{}
	}

	res := HeteroResult{
		Rho:           cfg.Rho,
		SlowServers:   slow,
		TotalServers:  servers,
		CapacityShare: float64(slow) * cfg.SlowCores / totalCores,
		Seeds:         cfg.Seeds,
	}
	var scenarios []Scenario
	for _, spec := range []PolicySpec{RR(), SRc(4), SRdyn()} {
		scenarios = append(scenarios, Scenario{
			Name:     spec.Name,
			Cluster:  cluster,
			Policy:   spec,
			Workload: PoissonWorkload{Lambda0: capacity, Queries: cfg.Queries},
			Load:     cfg.Rho,
		})
	}
	rows, replicates := cfg.runStudy(context.Background(), "hetero", scenarios)
	for i, sr := range rows {
		row := HeteroRow{ServiceRow: sr}
		var shares []float64
		for _, cell := range replicates[i] {
			if cell.Err != nil { // match newCellStats: no truncated runs
				continue
			}
			if ps, ok := cell.Outcome.Extra.(PoissonStats); ok {
				var slowDone, allDone uint64
				for i, done := range ps.ServerCompleted {
					allDone += done
					if i < slow {
						slowDone += done
					}
				}
				if allDone > 0 {
					shares = append(shares, float64(slowDone)/float64(allDone))
				}
			}
		}
		if d := stats.Describe(shares); d.N > 0 {
			row.SlowShare = d.Mean
			row.SlowShareCI95 = d.CI95
		}
		res.Rows = append(res.Rows, row)
	}
	return res
}

// WriteTSV renders the study; replicated runs gain mean_ci95_s,
// slow_share_ci95 and n columns.
func (r HeteroResult) WriteTSV(w io.Writer) error {
	share := func(header string, v func(HeteroRow) float64) column[HeteroRow] {
		return column[HeteroRow]{header, func(r HeteroRow) string { return fmt.Sprintf("%.3f", v(r)) }}
	}
	cols := append(
		lift(HeteroRow.base, colPolicy, colMean, colMeanCI, colMedian, colP95),
		share("slow_share", func(r HeteroRow) float64 { return r.SlowShare }),
		share("slow_share_ci95", func(r HeteroRow) float64 { return r.SlowShareCI95 }))
	cols = append(cols, lift(HeteroRow.base, colRefusedCount, colN)...)
	return writeTable(w,
		fmt.Sprintf("Extension: heterogeneous cluster (%d/%d slow servers, capacity share %.3f), rho=%.2f",
			r.SlowServers, r.TotalServers, r.CapacityShare, r.Rho),
		seedCols(r.Seeds, cols), r.Rows)
}
