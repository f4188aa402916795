package srlb_test

import (
	"bytes"
	"encoding/json"
	"math"
	"os"
	"regexp"
	"testing"
)

// benchCoreEntry is one PR's end-to-end pair medians in BENCH_core.json:
// per workload, per metric of BENCHMARK.json's end_to_end list, the
// parent's and the change's medians over alternating `bash bench/run.sh`
// pairs, with the parent's quartiles where they were recorded.
type benchCoreEntry struct {
	PR int `json:"pr"`
	// ParentCommit, GoVersion and NProc describe the measurement; a
	// backfilled entry leaves null what its CHANGES.md entry did not say.
	ParentCommit *string            `json:"parent_commit"`
	GoVersion    *string            `json:"go_version"`
	NProc        int                `json:"nproc"`
	Seed         uint64             `json:"seed"`
	Backfill     bool               `json:"backfill"`
	Source       string             `json:"source"`
	Workloads    benchCoreWorkloads `json:"workloads"`
	// HeldOut, when present, is the same measurement on a seed the change
	// was not written against, for the workloads the claim names.
	HeldOut *struct {
		Seed      uint64             `json:"seed"`
		Workloads benchCoreWorkloads `json:"workloads"`
	} `json:"held_out,omitempty"`
}

type benchCoreWorkloads map[string]struct {
	Pairs   int `json:"pairs"`
	Metrics map[string]struct {
		Parent   *float64 `json:"parent"`
		ParentQ1 *float64 `json:"parent_q1"`
		ParentQ3 *float64 `json:"parent_q3"`
		Change   *float64 `json:"change"`
	} `json:"metrics"`
}

var commitHash = regexp.MustCompile(`^[0-9a-f]{7,40}$`)

// TestBenchCoreTrajectory holds BENCH_core.json, the performance
// trajectory, to its shape: it parses, PR numbers strictly increase,
// parent commits are unique, and every workload and metric it names is
// one BENCHMARK.json declares. An entry measured by the PR that wrote it
// names its parent commit, go version and nproc; only a backfill from
// CHANGES.md may leave them null.
func TestBenchCoreTrajectory(t *testing.T) {
	var decl struct {
		Workloads []struct{ Name string } `json:"workloads"`
		EndToEnd  []struct{ Name string } `json:"end_to_end"`
	}
	raw, err := os.ReadFile("BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	if err := json.Unmarshal(raw, &decl); err != nil {
		t.Fatalf("BENCHMARK.json: %v", err)
	}
	workloads, metrics := map[string]bool{}, map[string]bool{}
	for _, w := range decl.Workloads {
		workloads[w.Name] = true
	}
	for _, m := range decl.EndToEnd {
		metrics[m.Name] = true
	}

	raw, err = os.ReadFile("BENCH_core.json")
	if err != nil {
		t.Fatal(err)
	}
	dec := json.NewDecoder(bytes.NewReader(raw))
	dec.DisallowUnknownFields()
	var entries []benchCoreEntry
	if err := dec.Decode(&entries); err != nil {
		t.Fatalf("BENCH_core.json: %v", err)
	}
	if len(entries) == 0 {
		t.Fatal("BENCH_core.json has no entries")
	}
	parents := map[string]int{}
	for i, e := range entries {
		if i > 0 && e.PR <= entries[i-1].PR {
			t.Errorf("PR %d follows PR %d: PR numbers must strictly increase", e.PR, entries[i-1].PR)
		}
		if !e.Backfill && (e.ParentCommit == nil || e.GoVersion == nil || e.NProc <= 0) {
			t.Errorf("PR %d: a measured entry names its parent commit, go version and nproc", e.PR)
		}
		if c := e.ParentCommit; c != nil {
			if !commitHash.MatchString(*c) {
				t.Errorf("PR %d: parent commit %q is not a commit hash", e.PR, *c)
			}
			if pr, dup := parents[*c]; dup {
				t.Errorf("PR %d: parent commit %s is PR %d's too", e.PR, *c, pr)
			}
			parents[*c] = e.PR
		}
		if len(e.Workloads) == 0 {
			t.Errorf("PR %d has no workloads", e.PR)
		}
		checkWorkloads(t, e.PR, e.Workloads, workloads, metrics)
		if h := e.HeldOut; h != nil {
			if h.Seed == e.Seed || len(h.Workloads) == 0 {
				t.Errorf("PR %d: a held-out measurement names another seed and at least one workload", e.PR)
			}
			checkWorkloads(t, e.PR, h.Workloads, workloads, metrics)
		}
	}
}

// checkWorkloads holds one entry's workloads to BENCHMARK.json's names
// and its medians to being finite, with the parent's inside its quartiles.
func checkWorkloads(t *testing.T, pr int, ws benchCoreWorkloads, workloads, metrics map[string]bool) {
	t.Helper()
	for name, w := range ws {
		if !workloads[name] {
			t.Errorf("PR %d: BENCHMARK.json declares no workload %q", pr, name)
		}
		if w.Pairs <= 0 || len(w.Metrics) == 0 {
			t.Errorf("PR %d %s: want a positive pair count and at least one metric", pr, name)
		}
		for metric, v := range w.Metrics {
			if !metrics[metric] {
				t.Errorf("PR %d %s: BENCHMARK.json declares no end-to-end metric %q", pr, name, metric)
			}
			ok := func(x *float64) bool { return x != nil && *x >= 0 && !math.IsInf(*x, 0) }
			switch {
			case !ok(v.Parent) || !ok(v.Change):
				t.Errorf("PR %d %s %s: parent and change medians must be finite and not negative", pr, name, metric)
			case (v.ParentQ1 == nil) != (v.ParentQ3 == nil):
				t.Errorf("PR %d %s %s: give both parent quartiles or neither", pr, name, metric)
			case v.ParentQ1 != nil && !(*v.ParentQ1 <= *v.Parent && *v.Parent <= *v.ParentQ3):
				t.Errorf("PR %d %s %s: parent median %g is outside its quartiles [%g, %g]",
					pr, name, metric, *v.Parent, *v.ParentQ1, *v.ParentQ3)
			}
		}
	}
}
