package experiments

import (
	"context"
	"fmt"
	"runtime"
	"sync"
	"time"

	"srlb/internal/metrics"
)

// Runner executes scenarios on a worker pool. Cells are independent
// simulations with all randomness derived from their own scenario value,
// so the worker count changes wall-clock time and nothing else: results
// are identical for 1 worker and N, and arrive in input order.
//
// The zero value runs on GOMAXPROCS workers with no progress output.
type Runner struct {
	// Workers bounds concurrent scenarios; 0 means GOMAXPROCS, 1 is
	// fully serial.
	Workers int
	// Progress, if non-nil, receives one line per finished cell. It is
	// called from worker goroutines under an internal lock, in completion
	// (not input) order.
	Progress func(string)
}

func (r Runner) workers(n int) int {
	w := r.Workers
	if w <= 0 {
		w = runtime.GOMAXPROCS(0)
	}
	if w > n {
		w = n
	}
	if w < 1 {
		w = 1
	}
	return w
}

// Run executes the scenarios and returns one CellResult per scenario, in
// input order regardless of completion order. On cancellation it returns
// promptly with partial results — finished cells are complete, the cell(s)
// in flight and the cells never started carry the context error as Err —
// together with the context error.
func (r Runner) Run(ctx context.Context, scenarios []Scenario) ([]CellResult, error) {
	if ctx == nil {
		ctx = context.Background()
	}
	n := len(scenarios)
	results := make([]CellResult, n)
	for i := range results {
		results[i] = CellResult{Index: i, Name: scenarios[i].label(), Policy: scenarios[i].Policy.Name,
			Workload: scenarios[i].Workload.Label(), Variant: scenarios[i].Variant,
			Load: scenarios[i].load(), LoadVec: scenarios[i].LoadVec, Seed: scenarios[i].seed()}
	}
	if n == 0 {
		return results, ctx.Err()
	}

	var (
		wg       sync.WaitGroup
		progress sync.Mutex
		done     int
	)
	report := func(c CellResult) {
		if r.Progress == nil {
			return
		}
		progress.Lock()
		defer progress.Unlock()
		done++
		if c.Err != nil {
			r.Progress(fmt.Sprintf("[%d/%d] %s: %v", done, n, c.Name, c.Err))
			return
		}
		r.Progress(fmt.Sprintf("[%d/%d] %s: mean=%s ok=%.3f (%v)",
			done, n, c.Name,
			metrics.FormatDuration(c.Outcome.RT.Mean()), c.Outcome.OKFraction(),
			c.Wall.Round(time.Millisecond)))
	}

	next := make(chan int)
	for w := r.workers(n); w > 0; w-- {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range next {
				res := scenarios[i].Run(ctx)
				res.Index = i
				results[i] = res
				report(res)
			}
		}()
	}
feed:
	for i := range scenarios {
		select {
		case next <- i:
		case <-ctx.Done():
			// Cells never handed out carry the context error.
			for j := i; j < n; j++ {
				if results[j].Outcome.RT == nil && results[j].Err == nil {
					results[j].Err = ctx.Err()
				}
			}
			break feed
		}
	}
	close(next)
	wg.Wait()
	if err := ctx.Err(); err != nil {
		// A cell may have been claimed concurrently with cancellation and
		// finished anyway; re-mark only truly unrun cells.
		for j := range results {
			if results[j].Outcome.RT == nil && results[j].Err == nil {
				results[j].Err = err
			}
		}
		return results, err
	}
	return results, nil
}

// RunSweep runs the sweep's logical cells over its replication axis,
// all seeds at once or adaptively when s.Adaptive is enabled, and
// returns the axis-indexed result. The error mirrors Run's: non-nil
// only on cancellation, with the partial cells still returned.
func (r Runner) RunSweep(ctx context.Context, s Sweep) (SweepResult, error) {
	s = s.withDefaults()
	seeds, n, stop := s.replication()
	reps, reason, err := r.replicate(ctx, s.cellScenarios(), seeds, n, stop)
	res := SweepResult{
		Policies: s.Policies, Variants: s.Variants,
		Loads: s.loadLabels(), LoadVecs: s.LoadGrid.Points(), Seeds: seeds,
	}
	for ci, cell := range reps {
		res.spans = append(res.spans, cellSpan{len(res.Cells), len(res.Cells) + len(cell), reason[ci]})
		res.Cells = append(res.Cells, cell...)
	}
	return res, err
}

// stopRule sees each completed round of replicate: every logical cell's
// replicates so far, and the reasons of the cells already closed. It
// closes a cell by giving it a reason.
type stopRule func(reps [][]CellResult, reason []string)

// replicate is the one replication loop. It runs each logical cell over
// seeds in rounds and returns every cell's replicates, in seed order,
// with the reason its replication stopped. Round 0 runs the first n
// seeds of every cell in one Run batch; without a stop rule (fixed
// replication) it is the only round. With one, each later round gives
// its next seed to every cell that stop has not closed, until no open
// cell has a seed left. A batch lists the cells in order, each cell's
// seeds adjacent, and stop sees completed rounds only, so the schedule
// is the same at any worker count. The error is Run's: on cancellation
// the loop ends with the partial replicates.
func (r Runner) replicate(ctx context.Context, cells []Scenario, seeds []uint64, n int, stop stopRule) ([][]CellResult, []string, error) {
	reps := make([][]CellResult, len(cells))
	reason := make([]string, len(cells))
	for ; ; n = min(n+1, len(seeds)) {
		var batch []Scenario
		var owner []int
		for ci, sc := range cells {
			if reason[ci] != "" {
				continue
			}
			for _, seed := range seeds[len(reps[ci]):n] {
				sc.Seed = seed
				batch, owner = append(batch, sc), append(owner, ci)
			}
		}
		if len(batch) == 0 {
			return reps, reason, nil
		}
		results, err := r.Run(ctx, batch)
		for i, res := range results {
			reps[owner[i]] = append(reps[owner[i]], res)
		}
		if err != nil || stop == nil {
			return reps, reason, err
		}
		stop(reps, reason)
	}
}
