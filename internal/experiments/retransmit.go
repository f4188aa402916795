package experiments

import (
	"context"
	"fmt"
	"math"
	"time"

	"srlb/internal/metrics"
)

const (
	// retransmitRho is the overload the study runs at: deep enough past
	// saturation that backlogs fill.
	retransmitRho = 2.0
	// retransmitRTO is the client's initial retransmission timeout: 1s,
	// Linux's floor.
	retransmitRTO = time.Second
)

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

// RunRetransmitAblation studies the paper's §IV-C design decision: with
// tcp_abort_on_overflow enabled, a connection hitting a full backlog is
// refused instantly with a RST; without it, the SYN is silently dropped
// and the client retries after a (doubling) retransmission timeout —
// polluting response-time measurements with multi-second TCP artifacts.
// The paper enables the flag so that "the application response delays are
// measured, and not possible TCP SYN retransmit delays"; this experiment
// shows what they kept out.
//
// It runs both modes under identical arrivals at retransmitRho — a
// two-scenario study (same policy and workload shape, RST vs silent-drop
// clusters).
func RunRetransmitAblation(b Base) RetransmitResult {
	b = b.resolved()
	silentCluster := b.Cluster
	silentCluster.Server.AbortOnOverflow = false
	poisson := OneService(b.poisson())
	retransmitting := poisson
	retransmitting.RetransmitRTO = retransmitRTO
	rows, replicates := b.runStudy(context.Background(), "abort-on-overflow", []Scenario{
		{
			Name:     "abort-on-overflow (RST)",
			Cluster:  b.Cluster,
			Policy:   SRc(4),
			Workload: poisson,
			Load:     retransmitRho,
		},
		{
			Name:     "silent-drop + SYN retransmit",
			Cluster:  silentCluster,
			Policy:   SRc(4),
			Workload: retransmitting,
			Load:     retransmitRho,
		},
	})

	res := RetransmitResult{Rho: retransmitRho, Seeds: b.Seeds}
	for i, sr := range rows {
		row := RetransmitRow{ServiceRow: sr}
		var answered, timedOut int
		var retransmits float64
		for _, cell := range completed(replicates[i]) {
			row.Max = max(row.Max, cell.Outcome.RT.Max())
			answered += cell.Outcome.RT.Count()
			timedOut += cell.Outcome.Unfinished
			retransmits += float64(cell.Outcome.Cluster.Retransmits)
		}
		n := float64(sr.N)
		row.Completed = int(math.Round(float64(answered) / n))
		row.TimedOut = int(math.Round(float64(timedOut) / n))
		row.Retransmits = int(math.Round(retransmits / n))
		res.Rows = append(res.Rows, row)
	}
	return res
}

// TSV is the comparison as one table; replicated runs gain CI columns.
func (r RetransmitResult) TSV() TSV {
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
	return oneTable(fmt.Sprintf("Ablation: tcp_abort_on_overflow (SS IV-C), rho=%.2f", r.Rho),
		seedCols(r.Seeds, cols), r.Rows)
}
