package experiments

import (
	"context"
	"io"
	"math"
	"time"

	"srlb/internal/metrics"
)

// RetransmitConfig studies the paper's §IV-C design decision: with
// tcp_abort_on_overflow enabled, a connection hitting a full backlog is
// refused instantly with a RST; without it, the SYN is silently dropped
// and the client retries after a (doubling) retransmission timeout —
// polluting response-time measurements with multi-second TCP artifacts.
// The paper enables the flag so that "the application response delays are
// measured, and not possible TCP SYN retransmit delays"; this experiment
// shows what they kept out.
type RetransmitConfig struct {
	Cluster ClusterConfig
	// Rho is the (over)load to run at (default 1.05 — just past
	// saturation, where backlogs actually fill).
	Rho     float64
	Lambda0 float64
	Queries int
	// RTO is the client's initial retransmission timeout (default 1s,
	// Linux's floor).
	RTO time.Duration
	// Seeds is the replication axis (default: the cluster seed alone).
	Seeds    []uint64
	Progress func(string)
}

// RetransmitRow is one mode's outcome, aggregated across the
// replication axis (CI95 fields are zero when N == 1).
type RetransmitRow struct {
	Mode string
	// Completed response-time stats (across-seed means of per-seed
	// statistics; Max is the max over all replicates).
	Median, P95, P99, Max time.Duration
	Completed             int
	// Refused counts instant RSTs; TimedOut counts clients that gave up.
	Refused  int
	TimedOut int
	// Retransmits counts extra SYNs sent (mean across replicates).
	Retransmits uint64
	// N counts the completed replicates behind the row.
	N                   int
	MedianCI95, P99CI95 time.Duration
}

// RetransmitResult compares abort-on-overflow against silent drop.
type RetransmitResult struct {
	Rho   float64
	Seeds []uint64
	Rows  []RetransmitRow
}

// RunRetransmitAblation executes both modes under identical arrivals —
// two explicit Scenarios (same policy and workload shape, RST vs
// silent-drop clusters) handed to the parallel Runner.
func RunRetransmitAblation(cfg RetransmitConfig) RetransmitResult {
	cfg.Cluster = cfg.Cluster.withDefaults()
	if cfg.Rho == 0 {
		cfg.Rho = 1.05
	}
	if cfg.Queries == 0 {
		cfg.Queries = 20000
	}
	if cfg.RTO == 0 {
		cfg.RTO = time.Second
	}
	if cfg.Lambda0 == 0 {
		// Through the calibration cache: the retransmit study shares its
		// cluster (and thus its λ0) with every other figure run on it in
		// this process.
		cal := CalibrateCached(CalibrationConfig{Cluster: cfg.Cluster})
		cfg.Lambda0 = cal.Lambda0
	}
	seeds := cfg.Seeds
	if len(seeds) == 0 {
		seeds = []uint64{cfg.Cluster.Seed}
	}

	silentCluster := cfg.Cluster
	silentCluster.Server.AbortOnOverflow = false
	modes := []Scenario{
		{
			Name:     "abort-on-overflow (RST)",
			Cluster:  cfg.Cluster,
			Policy:   SRc(4),
			Workload: PoissonWorkload{Lambda0: cfg.Lambda0, Queries: cfg.Queries},
			Load:     cfg.Rho,
		},
		{
			Name:     "silent-drop + SYN retransmit",
			Cluster:  silentCluster,
			Policy:   SRc(4),
			Workload: PoissonWorkload{Lambda0: cfg.Lambda0, Queries: cfg.Queries, RetransmitRTO: cfg.RTO},
			Load:     cfg.Rho,
		},
	}
	cells, _ := Runner{Progress: cfg.Progress}.Run(context.Background(), replicateScenarios(modes, seeds))

	res := RetransmitResult{Rho: cfg.Rho, Seeds: seeds}
	for mi := range modes {
		group := cells[mi*len(seeds) : (mi+1)*len(seeds)]
		cs := newCellStats(group)
		if cs.N() == 0 {
			continue
		}
		// Metrics newCellStats does not carry: the all-replicate max and
		// the completion/timeout/retransmit accounting.
		var (
			maxRT               time.Duration
			completed, timedOut int
			retransmits         float64
		)
		for _, cell := range group {
			if cell.Err != nil { // match newCellStats: no truncated runs
				continue
			}
			maxRT = max(maxRT, cell.Outcome.RT.Max())
			completed += cell.Outcome.RT.Count()
			timedOut += cell.Outcome.Unfinished
			if ps, ok := cell.Outcome.Extra.(PoissonStats); ok {
				retransmits += float64(ps.Retransmits)
			}
		}
		n := cs.N()
		res.Rows = append(res.Rows, RetransmitRow{
			Mode:        cs.Name,
			Median:      secDur(cs.Median.Dist.Mean),
			P95:         secDur(cs.P95.Dist.Mean),
			P99:         secDur(cs.P99.Dist.Mean),
			Max:         maxRT,
			Completed:   int(math.Round(float64(completed) / float64(n))),
			Refused:     int(math.Round(cs.Refused.Dist.Mean)),
			TimedOut:    int(math.Round(float64(timedOut) / float64(n))),
			Retransmits: uint64(math.Round(retransmits / float64(n))),
			N:           n,
			MedianCI95:  secDur(cs.Median.Dist.ReportedCI95()),
			P99CI95:     secDur(cs.P99.Dist.ReportedCI95()),
		})
	}
	return res
}

// WriteTSV renders the comparison; replicated runs gain CI columns.
func (r RetransmitResult) WriteTSV(w io.Writer) error {
	t := tsvWriter{w: w}
	t.printf("# Ablation: tcp_abort_on_overflow (SS IV-C), rho=%.2f\n", r.Rho)
	replicated := len(r.Seeds) > 1
	if replicated {
		t.printf("mode\tmedian_s\tmedian_ci95_s\tp95_s\tp99_s\tp99_ci95_s\tmax_s\tcompleted\trefused\ttimed_out\tretransmits\tn\n")
	} else {
		t.printf("mode\tmedian_s\tp95_s\tp99_s\tmax_s\tcompleted\trefused\ttimed_out\tretransmits\n")
	}
	for _, row := range r.Rows {
		if replicated {
			t.printf("%s\t%s\t%s\t%s\t%s\t%s\t%s\t%d\t%d\t%d\t%d\t%d\n",
				row.Mode,
				metrics.FormatDuration(row.Median),
				metrics.FormatDuration(row.MedianCI95),
				metrics.FormatDuration(row.P95),
				metrics.FormatDuration(row.P99),
				metrics.FormatDuration(row.P99CI95),
				metrics.FormatDuration(row.Max),
				row.Completed, row.Refused, row.TimedOut, row.Retransmits, row.N)
		} else {
			t.printf("%s\t%s\t%s\t%s\t%s\t%d\t%d\t%d\t%d\n",
				row.Mode,
				metrics.FormatDuration(row.Median),
				metrics.FormatDuration(row.P95),
				metrics.FormatDuration(row.P99),
				metrics.FormatDuration(row.Max),
				row.Completed, row.Refused, row.TimedOut, row.Retransmits)
		}
	}
	return t.err
}
