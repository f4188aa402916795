package experiments

import (
	"encoding/json"
	"errors"
	"io"
	"testing"
	"time"

	"srlb/internal/sketch"
	"srlb/internal/wiki"
)

// failingWriter counts Write calls and fails the failAt-th one only
// (never, when failAt is 0).
type failingWriter struct {
	calls, failAt int
}

func (w *failingWriter) Write(p []byte) (int, error) {
	w.calls++
	if w.calls == w.failAt {
		return 0, errors.New("disk full")
	}
	return len(p), nil
}

// A write error must surface from every artifact writer, whichever of
// its writes it hits: for each writer, fail the k-th Write call only,
// for every k up to the number of calls a clean run makes. A writer that
// drops any call's result returns nil for that k — a truncated artifact
// reported as written.
func TestWritersSurfaceEveryWriteError(t *testing.T) {
	hist := sketch.New()
	bins := sketch.NewTimeBins(time.Second, 2*time.Second)
	for _, d := range []time.Duration{10 * time.Millisecond, 30 * time.Millisecond} {
		hist.Add(d)
		bins.Add(d, d)
	}
	seeds := []uint64{1, 2}
	policies := []PolicySpec{RR(), SRc(4)}
	svc := ServiceRow{Policy: "RR", Service: "all", LoadVec: []float64{0.3, 0.1}, N: 2}
	wikiRes := WikiResult{
		Day:  wiki.Config{Compression: 288},
		Runs: []WikiRun{{Spec: RR(), WikiBins: bins, Launched: []int{2, 0}, WikiAll: hist}},
	}

	writers := []struct {
		name  string
		write func(io.Writer) error
	}{
		{"ablation", AblationResult{Study: "k", Rows: []ServiceRow{{Variant: "k=1"}}}.WriteTSV},
		{"ablation replicated", AblationResult{Study: "k", Seeds: seeds, Rows: []ServiceRow{{Variant: "k=1"}}}.WriteTSV},
		{"calibration", CalibrationResult{Probes: []CalibrationProbe{{RatePerSec: 100}}}.WriteTSV},
		{"churn", ChurnResult{Rows: []ServiceRow{{Policy: "RR", Variant: "steady"}}}.WriteTSV},
		{"failover", FailoverResult{RecoverAt: time.Second, Modes: []FailoverMode{{ServiceRow: ServiceRow{Variant: "random"}, Bins: []FailoverBin{{}}}}}.WriteTSV},
		{"fig2", Fig2Result{Policies: policies, Rhos: []float64{0.5}, Points: [][]Fig2Point{{{}}, {{}}}}.WriteTSV},
		{"fig2 replicated", Fig2Result{Policies: policies, Rhos: []float64{0.5}, Seeds: seeds, Points: [][]Fig2Point{{{}}, {{}}}}.WriteTSV},
		{"fig4", Fig4Result{Series: []Fig4Series{{Spec: RR(), N: 1, Samples: []Fig4Sample{{}}}}}.WriteTSV},
		{"fig4 replicated", Fig4Result{Series: []Fig4Series{{Spec: RR(), N: 2, Samples: []Fig4Sample{{}}}}}.WriteTSV},
		{"cdf", CDFResult{Policies: policies[:1], RT: []*sketch.Histogram{hist}, Points: 4}.WriteTSV},
		{"cdf banded", CDFResult{
			Policies: policies[:1], RT: []*sketch.Histogram{hist}, Points: 4,
			Stats: []CellStats{newCellStats([]CellResult{{Seed: 1, Outcome: CellOutcome{RT: hist}}, {Seed: 2, Outcome: CellOutcome{RT: hist}}})},
			Bands: []CDFBand{{Fraction: []float64{0.5, 1}, Lo: make([]time.Duration, 2), Mid: make([]time.Duration, 2), Hi: make([]time.Duration, 2)}},
		}.WriteTSV},
		{"fig6", wikiRes.WriteFig6TSV},
		{"fig7", wikiRes.WriteFig7TSV},
		{"fig8", wikiRes.WriteFig8TSV},
		{"hetero", HeteroResult{Rows: []HeteroRow{{ServiceRow: ServiceRow{Policy: "RR"}}}}.WriteTSV},
		{"hetero replicated", HeteroResult{Seeds: seeds, Rows: []HeteroRow{{ServiceRow: ServiceRow{Policy: "RR"}}}}.WriteTSV},
		{"horizon", HorizonResult{RT: hist}.WriteSummary},
		{"resilience", ResilienceResult{Rows: []ServiceRow{{Variant: "kill/warm"}}}.WriteTSV},
		{"retransmit", RetransmitResult{Rows: []RetransmitRow{{ServiceRow: ServiceRow{Variant: "abort"}}}}.WriteTSV},
		{"retransmit replicated", RetransmitResult{Seeds: seeds, Rows: []RetransmitRow{{ServiceRow: ServiceRow{Variant: "abort"}}}}.WriteTSV},
		{"vipscale", VIPScaleResult{Rows: []VIPScaleRow{{Scheme: "random"}}}.WriteTSV},
		{"multiservice", MultiServiceResult{Rows: []ServiceRow{svc}}.WriteTSV},
		{"interference", InterferenceResult{Rows: []InterferenceRow{{ServiceRow: svc}}}.WriteTSV},
		{"policies", PoliciesResult{Rows: []PoliciesRow{{ServiceRow: svc}}}.WriteTSV},
		{"rhogrid", RhoGridResult{Rows: []ServiceRow{svc}}.WriteTSV},
	}
	for _, wr := range writers {
		t.Run(wr.name, func(t *testing.T) {
			clean := &failingWriter{}
			if err := wr.write(clean); err != nil {
				t.Fatalf("clean run failed: %v", err)
			}
			if clean.calls == 0 {
				t.Fatal("writer wrote nothing")
			}
			for k := 1; k <= clean.calls; k++ {
				if err := wr.write(&failingWriter{failAt: k}); err == nil {
					t.Errorf("write call %d of %d failed, yet the writer returned nil", k, clean.calls)
				}
			}
		})
	}
}

// A table cell reaches JSON as its TSV text: a number with the same digits
// when the text is a JSON number literal, a string otherwise. Texts that
// strconv.ParseFloat reads but JSON does not stay strings, so the
// document still marshals.
func TestTableJSONCells(t *testing.T) {
	cells := []string{"0.05", "-0.000", "100000", "1e5", "2.5E-3", "0",
		"NaN", "+Inf", "-Inf", "0x1p-2", "1_000", "01", "1.", ".5", "+1", "-", "", "steady"}
	got, err := json.Marshal(Table{Name: "t", Comment: "c", Columns: []string{"a"}, Rows: [][]string{cells}})
	if err != nil {
		t.Fatal(err)
	}
	want := `{"name":"t","comment":"c","columns":["a"],"rows":[[0.05,-0.000,100000,1e5,2.5E-3,0,` +
		`"NaN","+Inf","-Inf","0x1p-2","1_000","01","1.",".5","+1","-","","steady"]]}`
	if string(got) != want {
		t.Errorf("got  %s\nwant %s", got, want)
	}
}
