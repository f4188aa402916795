package main

import (
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"

	"srlb"
)

// hostFields are the values of BENCH_sweep.json that depend on the host
// (wall clock, core count), blanked before the golden comparison.
var hostFields = regexp.MustCompile(`"(wall_ms|total_wall_ms|gomaxprocs)": [0-9.e+-]+`)

// TestWriteSweepDocGolden pins BENCH_sweep.json — field names, field
// order, nesting and number formatting, as docs/RESULTS_SCHEMA.md
// documents them — on a small replicated multi-VIP sweep: two policies ×
// one load × two seeds of the interference workload, so every cell
// carries its per-VIP rows. To regenerate after an intended schema
// change, delete the golden and run the test once.
func TestWriteSweepDocGolden(t *testing.T) {
	res := srlb.RunInterference(srlb.InterferenceConfig{
		Cluster:   srlb.Cluster{Seed: 7, Servers: 4},
		Lambda0:   80,
		BatchRhos: []float64{0.3},
		Queries:   600,
		Policies:  []srlb.Policy{srlb.RR(), srlb.SRStatic(4)},
		Seeds:     srlb.DeriveSeeds(7, 2),
		Workers:   2,
	})
	dir := t.TempDir()
	if err := writeSweepDoc(dir, "BENCH_sweep.json", 80, 2, 0, res.Stats, nil, nil); err != nil {
		t.Fatal(err)
	}
	raw, err := os.ReadFile(filepath.Join(dir, "BENCH_sweep.json"))
	if err != nil {
		t.Fatal(err)
	}
	got := hostFields.ReplaceAllString(string(raw), `"$1": 0`)

	golden := filepath.Join("testdata", "BENCH_sweep.golden.json")
	want, err := os.ReadFile(golden)
	if os.IsNotExist(err) {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(golden, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
		t.Fatalf("golden %s did not exist; wrote it — review and commit", golden)
	}
	if err != nil {
		t.Fatal(err)
	}
	if got == string(want) {
		return
	}
	gotLines, wantLines := strings.Split(got, "\n"), strings.Split(string(want), "\n")
	for i := 0; i < len(gotLines) && i < len(wantLines); i++ {
		if gotLines[i] != wantLines[i] {
			t.Fatalf("%s differs at line %d\n got: %q\nwant: %q", golden, i+1, gotLines[i], wantLines[i])
		}
	}
	t.Fatalf("%s: got %d lines, want %d", golden, len(gotLines), len(wantLines))
}
