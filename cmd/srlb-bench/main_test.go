package main

import (
	"bytes"
	"path/filepath"
	"regexp"
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
// carries its per-VIP rows.
func TestWriteSweepDocGolden(t *testing.T) {
	res := srlb.RunInterference(srlb.InterferenceConfig{
		Base:      srlb.Base{Cluster: srlb.Cluster{Seed: 7, Servers: 4}, Queries: 600, Seeds: srlb.DeriveSeeds(7, 2), Workers: 2},
		Lambda0:   80,
		BatchRhos: []float64{0.3},
		Policies:  []srlb.Policy{srlb.RR(), srlb.SRStatic(4)},
	})
	var raw bytes.Buffer
	if err := writeSweepDoc(&raw, newSweepDoc(80, 2, 0, &res.Stats)); err != nil {
		t.Fatal(err)
	}
	got := hostFields.ReplaceAllString(raw.String(), `"$1": 0`)

	checkGolden(t, filepath.Join("testdata", "BENCH_sweep.golden.json"), got)
}
