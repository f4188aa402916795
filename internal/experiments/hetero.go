package experiments

import (
	"context"
	"io"
	"math"
	"time"

	"srlb/internal/appserver"
	"srlb/internal/metrics"
	"srlb/internal/stats"
)

// HeteroConfig studies a heterogeneous cluster — a natural extension the
// paper's design accommodates for free: the acceptance decision is a
// *local* busy-thread threshold, so a slow box (fewer cores) simply
// crosses its threshold earlier and refuses more offers, shedding load to
// faster boxes. A random balancer, blind to capacity, keeps feeding the
// slow boxes.
type HeteroConfig struct {
	Cluster ClusterConfig
	// SlowFraction of the servers get SlowCores instead of the default
	// (defaults: 1/3 of the cluster at 1 core vs the usual 2).
	SlowFraction float64
	SlowCores    float64
	// Rho is computed against the HETEROGENEOUS capacity (default 0.85).
	Rho     float64
	Queries int
	// Seeds is the replication axis (default: the cluster seed alone).
	Seeds []uint64
	// Workers bounds the per-policy parallelism (0 = GOMAXPROCS).
	Workers  int
	Progress func(string)
}

// HeteroRow is one policy's outcome on the mixed cluster, aggregated
// across the replication axis (CI95 fields are zero when N == 1).
type HeteroRow struct {
	Policy       string
	Mean, Median time.Duration
	P95          time.Duration
	Refused      int
	// SlowShare is the fraction of total completions served by slow boxes
	// (capacity-proportional would equal slow capacity share).
	SlowShare float64
	// N counts the completed replicates behind the row.
	N             int
	MeanCI95      time.Duration
	SlowShareCI95 float64
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

// RunHetero executes RR, SR4 and SRdyn on the mixed cluster — a Sweep over
// the three policies whose cluster carries a ServerOverride, with the
// slow-box completion share read from the workload's PoissonStats.
func RunHetero(cfg HeteroConfig) HeteroResult {
	cfg.Cluster = cfg.Cluster.withDefaults()
	if cfg.SlowFraction == 0 {
		cfg.SlowFraction = 1.0 / 3
	}
	if cfg.SlowCores == 0 {
		cfg.SlowCores = 1
	}
	if cfg.Rho == 0 {
		cfg.Rho = 0.85
	}
	if cfg.Queries == 0 {
		cfg.Queries = 20000
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
	}
	policies := []PolicySpec{RR(), SRc(4), SRdyn()}
	sweep, _ := Runner{Workers: cfg.Workers, Progress: cfg.Progress}.RunSweep(context.Background(), Sweep{
		Cluster:  cluster,
		Policies: policies,
		Loads:    []float64{cfg.Rho},
		Seeds:    cfg.Seeds,
		Workload: PoissonWorkload{Lambda0: capacity, Queries: cfg.Queries},
	})
	agg := sweep.Aggregate()
	res.Seeds = sweep.Seeds
	for pi, spec := range policies {
		cs := agg.Cell(pi, 0)
		if cs.N() == 0 {
			continue
		}
		row := HeteroRow{
			Policy:   spec.Name,
			Mean:     secDur(cs.Mean.Dist.Mean),
			Median:   secDur(cs.Median.Dist.Mean),
			P95:      secDur(cs.P95.Dist.Mean),
			Refused:  int(math.Round(cs.Refused.Dist.Mean)),
			N:        cs.N(),
			MeanCI95: secDur(cs.Mean.Dist.ReportedCI95()),
		}
		var shares []float64
		for si := range sweep.Seeds {
			cell := sweep.Cell(pi, 0, si)
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

// WriteTSV renders the study; replicated runs gain mean_ci95_s and
// slow_share_ci95 columns.
func (r HeteroResult) WriteTSV(w io.Writer) error {
	t := tsvWriter{w: w}
	t.printf("# Extension: heterogeneous cluster (%d/%d slow servers, capacity share %.3f), rho=%.2f\n",
		r.SlowServers, r.TotalServers, r.CapacityShare, r.Rho)
	replicated := len(r.Seeds) > 1
	if replicated {
		t.printf("policy\tmean_s\tmean_ci95_s\tmedian_s\tp95_s\tslow_share\tslow_share_ci95\trefused\tn\n")
	} else {
		t.printf("policy\tmean_s\tmedian_s\tp95_s\tslow_share\trefused\n")
	}
	for _, row := range r.Rows {
		if replicated {
			t.printf("%s\t%s\t%s\t%s\t%s\t%.3f\t%.3f\t%d\t%d\n",
				row.Policy,
				metrics.FormatDuration(row.Mean),
				metrics.FormatDuration(row.MeanCI95),
				metrics.FormatDuration(row.Median),
				metrics.FormatDuration(row.P95),
				row.SlowShare, row.SlowShareCI95, row.Refused, row.N)
		} else {
			t.printf("%s\t%s\t%s\t%s\t%.3f\t%d\n",
				row.Policy,
				metrics.FormatDuration(row.Mean),
				metrics.FormatDuration(row.Median),
				metrics.FormatDuration(row.P95),
				row.SlowShare, row.Refused)
		}
	}
	return t.err
}
