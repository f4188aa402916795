package experiments

import (
	"context"
	"fmt"
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
	Base
	// Rho is the (over)load to run at (default 1.05 — just past
	// saturation, where backlogs actually fill).
	Rho     float64
	Lambda0 float64
	// RTO is the client's initial retransmission timeout (default 1s,
	// Linux's floor).
	RTO time.Duration
}

// RetransmitRow is one mode's ServiceRow — the mode in Variant, the
// completed queries' response-time statistics — plus what the study
// counts beyond it.
type RetransmitRow struct {
	ServiceRow
	// Max is the largest response time over all replicates.
	Max time.Duration
	// Completed and TimedOut (clients that gave up) are across-seed mean
	// counts, as is Retransmits, the extra SYNs sent.
	Completed, TimedOut, Retransmits int
}

// RetransmitResult compares abort-on-overflow against silent drop.
type RetransmitResult struct {
	Rho   float64
	Seeds []uint64
	Rows  []RetransmitRow
}

// RunRetransmitAblation executes both modes under identical arrivals — a
// two-scenario study (same policy and workload shape, RST vs silent-drop
// clusters).
func RunRetransmitAblation(cfg RetransmitConfig) RetransmitResult {
	cfg.Base = cfg.Base.withDefaults()
	if cfg.Rho == 0 {
		cfg.Rho = 1.05
	}
	if cfg.RTO == 0 {
		cfg.RTO = time.Second
	}
	cfg.Lambda0 = cfg.Cluster.lambda0(cfg.Lambda0)

	silentCluster := cfg.Cluster
	silentCluster.Server.AbortOnOverflow = false
	rows, replicates := cfg.runStudy(context.Background(), "abort-on-overflow", []Scenario{
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
	})

	res := RetransmitResult{Rho: cfg.Rho, Seeds: cfg.Seeds}
	for i, sr := range rows {
		row := RetransmitRow{ServiceRow: sr}
		var completed, timedOut int
		var retransmits float64
		for _, cell := range replicates[i] {
			if cell.Err != nil { // match newCellStats: no truncated runs
				continue
			}
			row.Max = max(row.Max, cell.Outcome.RT.Max())
			completed += cell.Outcome.RT.Count()
			timedOut += cell.Outcome.Unfinished
			if ps, ok := cell.Outcome.Extra.(PoissonStats); ok {
				retransmits += float64(ps.Retransmits)
			}
		}
		n := float64(sr.N)
		row.Completed = int(math.Round(float64(completed) / n))
		row.TimedOut = int(math.Round(float64(timedOut) / n))
		row.Retransmits = int(math.Round(retransmits / n))
		res.Rows = append(res.Rows, row)
	}
	return res
}

// WriteTSV renders the comparison; replicated runs gain CI columns.
func (r RetransmitResult) WriteTSV(w io.Writer) error {
	count := func(header string, v func(RetransmitRow) int) column[RetransmitRow] {
		return column[RetransmitRow]{header, func(r RetransmitRow) string { return fmt.Sprint(v(r)) }}
	}
	cols := append(
		lift(RetransmitRow.base, colLabel("mode"), colMedian, colMedCI, colP95, colP99, colP99CI),
		column[RetransmitRow]{"max_s", func(r RetransmitRow) string { return metrics.FormatDuration(r.Max) }},
		count("completed", func(r RetransmitRow) int { return r.Completed }),
		count("refused", RetransmitRow.RefusedCount),
		count("timed_out", func(r RetransmitRow) int { return r.TimedOut }),
		count("retransmits", func(r RetransmitRow) int { return r.Retransmits }),
		count("n", func(r RetransmitRow) int { return r.N }))
	return writeTable(w, fmt.Sprintf("Ablation: tcp_abort_on_overflow (SS IV-C), rho=%.2f", r.Rho),
		seedCols(r.Seeds, cols), r.Rows)
}
