package main

import (
	"bytes"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"regexp"
	"slices"
	"strings"
	"testing"
)

// benchBin is the srlb-bench binary TestMain builds once from this
// directory; the black-box tests below run it as a user would.
var benchBin string

func TestMain(m *testing.M) {
	dir, err := os.MkdirTemp("", "srlb-bench-test")
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
	benchBin = filepath.Join(dir, "srlb-bench")
	if out, err := exec.Command("go", "build", "-o", benchBin, ".").CombinedOutput(); err != nil {
		fmt.Fprintf(os.Stderr, "go build: %v\n%s", err, out)
		os.RemoveAll(dir)
		os.Exit(1)
	}
	code := m.Run()
	os.RemoveAll(dir)
	os.Exit(code)
}

// runBench runs the built binary and returns what it printed and its
// exit code.
func runBench(t *testing.T, args ...string) (stdout, stderr string, exit int) {
	t.Helper()
	var o, e bytes.Buffer
	cmd := exec.Command(benchBin, args...)
	cmd.Stdout, cmd.Stderr = &o, &e
	if err := cmd.Run(); err != nil {
		ee, ok := err.(*exec.ExitError)
		if !ok {
			t.Fatalf("srlb-bench %v: %v", args, err)
		}
		exit = ee.ExitCode()
	}
	return o.String(), e.String(), exit
}

// cliGoldenCases are the pinned invocations: the whole suite at small
// scale (every experiment's summary lines, JSON documents, -plot output
// and file set), the two experiments "all" leaves out, and one standalone
// extension, whose document keeps the name it has under "all".
var cliGoldenCases = []struct {
	name string
	args []string
}{
	{"all", []string{"-experiment", "all", "-servers", "4", "-queries", "1500", "-rho-points", "4",
		"-seeds", "2", "-compress", "2880", "-vip-counts", "100", "-plot"}},
	{"horizon", []string{"-experiment", "horizon", "-servers", "4", "-horizon-queries", "20000"}},
	{"calibrate", []string{"-experiment", "calibrate", "-servers", "4"}},
	{"policies", []string{"-experiment", "policies", "-servers", "4", "-queries", "1500", "-seeds", "2"}},
}

// What two runs of one binary disagree on, blanked before comparison:
// wall-clock timings, the vipscale experiment's measured ns/pkt (and the
// chart drawn from them), and the horizon soak's host readings.
var (
	doneIn         = regexp.MustCompile(`(?m)^   done in .*$`)
	horizonHost    = regexp.MustCompile(`peak heap [0-9.]+ MB, [0-9]+ q/s`)
	horizonTSVHost = regexp.MustCompile(`(?m)^(peak_heap_mb|wall|qps)\t.*$`)
	vipscaleCols   = []string{"build_ms", "syn_ns", "steer_ns"}
	plotRow        = regexp.MustCompile(`^[^|]*\|.*$`)
	vipscaleNums   = regexp.MustCompile(`(build=|syn=|steer=|schemes\): ) *[0-9.]+`)
)

func normalizeStdout(s, outDir string) string {
	s = strings.ReplaceAll(s, outDir, "OUT")
	s = doneIn.ReplaceAllString(s, "   done in T")
	s = horizonHost.ReplaceAllString(s, "peak heap N MB, N q/s")
	lines := strings.Split(s, "\n")
	inVIPScale := false
	for i, line := range lines {
		switch {
		case strings.HasPrefix(line, "== "):
			inVIPScale = strings.Contains(line, "VIP-scale")
		case !inVIPScale || strings.HasPrefix(line, "   wrote ") || strings.HasPrefix(line, "   done in "):
		case plotRow.MatchString(line):
			lines[i] = "<plot row>"
		default:
			lines[i] = vipscaleNums.ReplaceAllString(line, "${1}N")
		}
	}
	return strings.Join(lines, "\n")
}

func normalizeArtifact(name, body string) string {
	switch {
	case strings.HasSuffix(name, ".json"):
		return blankColumns(hostFields.ReplaceAllString(body, `"$1": 0`), vipscaleCols...)
	case name == "horizon.tsv":
		return horizonTSVHost.ReplaceAllString(body, "$1\t-")
	case name == "vipscale_dispatch.tsv":
		lines := strings.Split(body, "\n")
		for i, line := range lines {
			if cols := strings.Split(line, "\t"); len(cols) == 7 && cols[0] != "scheme" {
				cols[3], cols[4], cols[5] = "-", "-", "-"
				lines[i] = strings.Join(cols, "\t")
			}
		}
		return strings.Join(lines, "\n")
	}
	return body
}

// blankColumns sets to 0 every row cell of the named table columns in a
// BENCH_*.json document as the binary indents it: a table's keys sit at
// six spaces, each row opens with "[" at eight and has a cell per line at
// ten.
func blankColumns(body string, names ...string) string {
	lines := strings.Split(body, "\n")
	var columns []string
	section, k := "", 0
	for i, line := range lines {
		switch {
		case line == `      "columns": [`:
			section, columns = "columns", nil
		case line == `      "rows": [`:
			section = "rows"
		case strings.HasPrefix(line, "      ]"):
			section = ""
		case section == "columns":
			columns = append(columns, strings.Trim(line, ` ",`))
		case section == "rows" && line == "        [":
			k = 0
		case section == "rows" && strings.HasPrefix(line, "          "):
			if slices.Contains(names, columns[k]) {
				lines[i] = "          0" + line[len(strings.TrimRight(line, ",")):]
			}
			k++
		}
	}
	return strings.Join(lines, "\n")
}

// checkGolden compares got with the committed golden at path byte for
// byte and reports the first differing line. A missing golden is written
// and the test fails once: to regenerate after an intended output change,
// delete the file (or the case's directory), run the test, review the
// diff, commit.
func checkGolden(t *testing.T, path, got string) {
	t.Helper()
	want, err := os.ReadFile(path)
	if os.IsNotExist(err) {
		if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
		t.Errorf("golden %s did not exist; wrote it — review and commit", path)
		return
	}
	if err != nil {
		t.Fatal(err)
	}
	if got == string(want) {
		return
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
			t.Errorf("%s differs at line %d (got %d lines, want %d)\n got: %q\nwant: %q",
				path, i+1, len(gotLines), len(wantLines), g, w)
			return
		}
	}
}

// TestCLIGolden pins what srlb-bench prints and writes: stdout and every
// file in -out of each case against testdata/cli/<case>/.
func TestCLIGolden(t *testing.T) {
	if testing.Short() {
		t.Skip("runs the whole experiment suite at small scale (~20 s)")
	}
	for _, c := range cliGoldenCases {
		t.Run(c.name, func(t *testing.T) {
			outDir := filepath.Join(t.TempDir(), "out")
			stdout, stderr, exit := runBench(t, append(c.args, "-out", outDir)...)
			if exit != 0 || stderr != "" {
				t.Fatalf("exit %d, stderr:\n%s", exit, stderr)
			}
			golden := filepath.Join("testdata", "cli", c.name)
			checkGolden(t, filepath.Join(golden, "stdout.txt"), normalizeStdout(stdout, outDir))

			wrote, err := os.ReadDir(outDir)
			if err != nil {
				t.Fatal(err)
			}
			seen := map[string]bool{}
			for _, f := range wrote {
				seen[f.Name()] = true
				body, err := os.ReadFile(filepath.Join(outDir, f.Name()))
				if err != nil {
					t.Fatal(err)
				}
				checkGolden(t, filepath.Join(golden, "out", f.Name()), normalizeArtifact(f.Name(), string(body)))
			}
			pinned, err := os.ReadDir(filepath.Join(golden, "out"))
			if err != nil {
				t.Fatal(err)
			}
			for _, f := range pinned {
				if !seen[f.Name()] {
					t.Errorf("%s is pinned but was not written", f.Name())
				}
			}
		})
	}
}
