package testbed

import (
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"srlb/internal/feedback"
)

// TestCounterGolden pins every node's counters — the names Keys() lists,
// in its order, and the value Get returns for each — after the codec
// parity topologies and a flowlet + feedback cell at ρ ≈ 0.85 on twelve
// servers. The counter names and values are an external contract
// (srlb-sim prints them, the benchmark and the experiments read them),
// so a change to how counting is done must leave this file unedited. A
// missing golden is written and the test fails once: delete it, run the
// test, review the diff, commit.
func TestCounterGolden(t *testing.T) {
	cases := append(parityCases(), parityCase{
		name: "flowlet_feedback_cell",
		top: Topology{
			Seed:     305,
			VIPs:     []VIPSpec{{Scheme: flowletScheme}},
			Feedback: feedback.Config{Enabled: true, Interval: 5 * time.Millisecond, Horizon: 5 * time.Second},
		},
		n: 3000, rate: 1020, demand: 20 * time.Millisecond, closeAck: true,
		exercised: [2]string{"lb0", "flowlet_resteer"},
	})
	var b strings.Builder
	for _, c := range cases {
		fp := c.run(false)
		if fp.Counts[c.exercised[0]][c.exercised[1]] == 0 {
			t.Fatalf("%s: %s %s = 0: the case does not reach what it is for", c.name, c.exercised[0], c.exercised[1])
		}
		b.WriteString("# " + c.name + "\n")
		for _, l := range fp.CountLines {
			b.WriteString(l + "\n")
		}
	}
	got := b.String()

	path := filepath.Join("testdata", "counters.txt")
	want, err := os.ReadFile(path)
	if os.IsNotExist(err) {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
		t.Fatalf("golden %s did not exist; wrote it — review and commit", path)
	}
	if err != nil {
		t.Fatal(err)
	}
	gotLines, wantLines := strings.Split(got, "\n"), strings.Split(string(want), "\n")
	for i := 0; i < len(gotLines) || i < len(wantLines); i++ {
		var g, w string
		if i < len(gotLines) {
			g = gotLines[i]
		}
		if i < len(wantLines) {
			w = wantLines[i]
		}
		if g != w {
			t.Fatalf("%s differs at line %d (got %d lines, want %d)\n got: %q\nwant: %q",
				path, i+1, len(gotLines), len(wantLines), g, w)
		}
	}
}
