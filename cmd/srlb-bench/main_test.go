package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"regexp"
	"slices"
	"strings"
	"testing"

	"srlb"
)

// hostFields are the values of a BENCH_*.json document that depend on
// the host (wall clock, core count), blanked before the golden comparison.
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

// readFile returns a file's contents or fails the test.
func readFile(t *testing.T, path string) string {
	t.Helper()
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	return string(raw)
}

// TestJSONTablesMatchTSV: every table of a BENCH_*.json document, rendered
// as TSV, is byte for byte a block of the TSV artifact the same run wrote,
// and the document's tables hold every row of that artifact — the two
// files are one code path, and the JSON drops no field of the TSV.
func TestJSONTablesMatchTSV(t *testing.T) {
	dir := filepath.Join("testdata", "cli", "all", "out")
	for doc, tsv := range map[string]string{
		"BENCH_policies.json":   "extension_policies.tsv",
		"BENCH_resilience.json": "extension_resilience.tsv",
		"BENCH_vipscale.json":   "vipscale_dispatch.tsv",
	} {
		t.Run(doc, func(t *testing.T) {
			var parsed struct {
				Tables []struct {
					Name, Comment string
					Columns       []string
					Rows          [][]any
				}
			}
			dec := json.NewDecoder(strings.NewReader(readFile(t, filepath.Join(dir, doc))))
			dec.UseNumber()
			if err := dec.Decode(&parsed); err != nil {
				t.Fatal(err)
			}
			if len(parsed.Tables) == 0 {
				t.Fatal("no tables")
			}
			rest := "\n" + readFile(t, filepath.Join(dir, tsv))
			for _, table := range parsed.Tables {
				rendered := srlb.Table{Name: table.Name, Comment: table.Comment, Columns: table.Columns}
				for _, row := range table.Rows {
					cells := make([]string, len(row))
					for i, cell := range row {
						cells[i] = fmt.Sprint(cell)
					}
					rendered.Rows = append(rendered.Rows, cells)
				}
				var block strings.Builder
				if err := rendered.WriteTSV(&block); err != nil {
					t.Fatal(err)
				}
				// The same blanking as the TSV golden's (vipscale's
				// wall-clock columns).
				got := normalizeArtifact(tsv, block.String())
				if !strings.Contains(rest, "\n"+got) {
					t.Fatalf("table %q rendered as TSV is no block of %s:\n%s", table.Name, tsv, got)
				}
				rest = strings.Replace(rest, "\n"+got, "\n", 1)
			}
			for _, line := range strings.Split(rest, "\n") {
				if line != "" && !strings.HasPrefix(line, "# ") {
					t.Errorf("%s line %q is in no table of %s", tsv, line, doc)
				}
			}
		})
	}
}

// TestJSONDocumentShape holds every pinned BENCH_*.json to the v10
// contract: valid JSON, schema_version 10, and no top-level key outside
// the envelope, cells and tables.
func TestJSONDocumentShape(t *testing.T) {
	docs, err := filepath.Glob(filepath.Join("testdata", "cli", "*", "out", "BENCH_*.json"))
	if err != nil {
		t.Fatal(err)
	}
	docs = append(docs, filepath.Join("testdata", "BENCH_sweep.golden.json"))
	allowed := []string{"schema_version", "lambda0_qps", "workers", "gomaxprocs", "seeds", "total_wall_ms", "cells", "tables"}
	for _, path := range docs {
		raw := readFile(t, path)
		var doc map[string]json.RawMessage
		if !json.Valid([]byte(raw)) || json.Unmarshal([]byte(raw), &doc) != nil {
			t.Errorf("%s is not a JSON object", path)
			continue
		}
		if v := string(doc["schema_version"]); v != "10" {
			t.Errorf("%s: schema_version %s, want 10", path, v)
		}
		for key := range doc {
			if !slices.Contains(allowed, key) {
				t.Errorf("%s: top-level key %q is outside the v10 document shape", path, key)
			}
		}
	}
	if len(docs) < 8 {
		t.Errorf("found only %d documents — the glob is broken", len(docs))
	}
}
