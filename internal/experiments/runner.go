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

// RunSweep expands the sweep and executes it, returning the axis-indexed
// result. The error mirrors Run's: non-nil only on cancellation, with the
// partial cells still returned.
func (r Runner) RunSweep(ctx context.Context, s Sweep) (SweepResult, error) {
	s = s.withDefaults()
	cells, err := r.Run(ctx, s.Scenarios())
	return SweepResult{
		Policies: s.Policies, Variants: s.Variants,
		Loads: s.loadLabels(), LoadVecs: s.LoadGrid.Points(),
		Seeds: s.Seeds, Cells: cells,
	}, err
}
