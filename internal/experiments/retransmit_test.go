package experiments

import (
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"srlb/internal/appserver"
)

// TestRetransmitAblation reproduces the rationale of §IV-C: silent drops
// push SYN-retransmit delays into the measured tail, RSTs keep the
// measurements clean.
func TestRetransmitAblation(t *testing.T) {
	// Deep overload (ρ=2) with a tiny backlog: the backlog CAPS queueing
	// delay, so the completed-query tail is dominated by either nothing
	// (RST mode — rejected queries simply don't complete) or the
	// retransmission timeouts (silent mode) — the §IV-C contrast.
	res := RunRetransmitAblation(RetransmitConfig{
		Base: Base{Cluster: ClusterConfig{Seed: 21, Servers: 4, Server: serverWithBacklog(8)}, Queries: 6000},
		Rho:  2.0,
	})
	if len(res.Rows) != 2 {
		t.Fatalf("rows = %d", len(res.Rows))
	}
	abort, silent := res.Rows[0], res.Rows[1]

	// Overload must actually bite in both modes.
	if abort.Refused == 0 {
		t.Fatal("no RSTs under overload — test vacuous")
	}
	if silent.Retransmits == 0 {
		t.Fatal("no retransmissions under silent drop — test vacuous")
	}
	// The paper's point: the silent-drop tail carries RTO-scale delays.
	if silent.P99 < abort.P99+500*time.Millisecond {
		t.Fatalf("silent-drop p99 (%v) does not show retransmit delays over abort p99 (%v)",
			silent.P99, abort.P99)
	}
	// And the RST path never injects RTO-scale artifacts into completions:
	// every completed request was admitted on first contact.
	if abort.Retransmits != 0 {
		t.Fatal("abort mode should never retransmit")
	}

	tsv := render(t, res.TSV())
	if !strings.Contains(tsv, "abort-on-overflow") {
		t.Fatal("TSV missing modes")
	}
}

// TestRetransmitHonoursWorkers is the regression test for a config that
// had no Workers field and ran on Runner{Progress: …} alone: -workers 1
// still fanned out over GOMAXPROCS. Every cell's build asks ServerOverride
// for server 0 once and reports through Progress once it is done, so the
// gap between the two counts is the number of cells in flight.
func TestRetransmitHonoursWorkers(t *testing.T) {
	run := func(workers int) (tsv string, peak int32) {
		var started, finished atomic.Int32
		var mu sync.Mutex
		cluster := ClusterConfig{Seed: 21, Servers: 4, Server: serverWithBacklog(8)}
		cluster.ServerOverride = func(i int) appserver.Config {
			if i == 0 {
				mu.Lock()
				peak = max(peak, started.Add(1)-finished.Load())
				mu.Unlock()
			}
			return appserver.Config{} // fall back to Server
		}
		res := RunRetransmitAblation(RetransmitConfig{
			Base: Base{Cluster: cluster, Queries: 1500, Seeds: DeriveSeeds(21, 3), Workers: workers,
				Progress: func(string) { finished.Add(1) }},
			Rho:     2.0,
			Lambda0: 80,
		})
		if got := finished.Load(); got != 6 {
			t.Fatalf("workers=%d: %d progress lines, want 6 (2 modes × 3 seeds)", workers, got)
		}
		return render(t, res.TSV()), peak
	}
	serial, peak := run(1)
	if peak != 1 {
		t.Errorf("Workers: 1 had %d cells in flight at once", peak)
	}
	if parallel, _ := run(4); parallel != serial {
		t.Errorf("Workers: 4 changed the artifact:\n%s\nvs Workers: 1:\n%s", parallel, serial)
	}
}

func serverWithBacklog(backlog int) appserver.Config {
	cfg := appserver.Default()
	cfg.Backlog = backlog
	return cfg
}
