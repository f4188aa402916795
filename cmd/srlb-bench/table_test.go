package main

import (
	"flag"
	"io"
	"os"
	"path/filepath"
	"reflect"
	"regexp"
	"strings"
	"testing"
)

// parseArgs runs args through the real flag set and resolve, as main does,
// without running anything.
func parseArgs(args []string) (*env, []*experiment, error) {
	e := &env{}
	fs := flag.NewFlagSet("srlb-bench", flag.ContinueOnError)
	fs.SetOutput(io.Discard)
	e.declareFlags(fs)
	if err := fs.Parse(args); err != nil {
		return nil, nil, err
	}
	selected, err := e.resolve(fs)
	return e, selected, err
}

// stubTable replaces every entry's run with a recorder for the test's
// duration and returns the log of names run, in order. The calibration
// stub sets a non-zero λ0; the others check they see it when they asked.
func stubTable(t *testing.T) *[]string {
	var ran []string
	saved, savedCal := experiments, calibration
	t.Cleanup(func() { experiments, calibration = saved, savedCal })
	experiments = append([]experiment(nil), saved...)
	for i := range experiments {
		x := &experiments[i]
		x.run = func(e *env) (report, error) {
			ran = append(ran, x.name)
			if x.name == savedCal.name {
				e.lambda0 = 1
			} else if x.needsLambda0 && e.lambda0 == 0 {
				t.Errorf("%s needs lambda0 but ran before the calibration", x.name)
			}
			return report{}, nil
		}
	}
	calibration = experiments[0]
	return &ran
}

// runStubbed drives the stubbed table for one -experiment value and
// returns the names run.
func runStubbed(t *testing.T, ran *[]string, value string) []string {
	t.Helper()
	*ran = nil
	e, selected, err := parseArgs([]string{"-experiment", value})
	if err != nil {
		t.Fatal(err)
	}
	for _, x := range selected {
		if err := e.run(x); err != nil {
			t.Fatal(err)
		}
	}
	return *ran
}

var banner = regexp.MustCompile(`(?m)^== (.*) ==$`)

func TestTableInvariants(t *testing.T) {
	names := map[string]bool{}
	titles := map[string]string{}
	for _, x := range experiments {
		if names[x.name] {
			t.Errorf("entry name %q is not unique", x.name)
		}
		names[x.name] = true
		titles[x.title] = x.name
	}
	if experiments[0].name != calibration.name {
		t.Errorf("the table starts with %q, not the calibration", experiments[0].name)
	}

	ran := stubTable(t)
	// Every value the 577-line main() accepted, with what it ran there
	// (the calibration on demand, ahead of the first entry that needs it).
	for value, want := range map[string]string{
		"calibrate":    "calibrate",
		"fig2":         "calibrate fig2",
		"fig3":         "calibrate fig3",
		"fig4":         "calibrate fig4",
		"fig5":         "calibrate fig5",
		"wiki":         "wiki",
		"fig6":         "wiki",
		"fig7":         "wiki",
		"fig8":         "wiki",
		"ablations":    "calibrate ablations retransmit hetero",
		"bursty":       "calibrate bursty",
		"failover":     "calibrate failover",
		"resilience":   "calibrate resilience",
		"churn":        "calibrate churn",
		"multiservice": "calibrate multiservice",
		"interference": "calibrate interference",
		"policies":     "calibrate policies",
		"rhogrid":      "calibrate rhogrid",
		"vipscale":     "vipscale",
		"horizon":      "calibrate horizon",
	} {
		if got := strings.Join(runStubbed(t, ran, value), " "); got != want {
			t.Errorf("-experiment %s ran [%s], want [%s]", value, got, want)
		}
	}
	// Every name of the table is itself a valid value, and a needsLambda0
	// entry sees the calibration first (checked inside the stubs).
	for name := range names {
		if got := runStubbed(t, ran, name); !strings.Contains(" "+strings.Join(got, " ")+" ", " "+name+" ") {
			t.Errorf("-experiment %s ran %v", name, got)
		}
	}

	// "all" runs what the pinned stdout shows, in that order: the banner
	// sequence of testdata/cli/all, mapped back through the titles.
	pinned, err := os.ReadFile(filepath.Join("testdata", "cli", "all", "stdout.txt"))
	if err != nil {
		t.Fatal(err)
	}
	var want []string
	for _, m := range banner.FindAllStringSubmatch(string(pinned), -1) {
		name, ok := titles[m[1]]
		if !ok {
			t.Fatalf("pinned banner %q is no entry's title", m[1])
		}
		want = append(want, name)
	}
	if got := runStubbed(t, ran, "all"); !reflect.DeepEqual(got, want) {
		t.Errorf("-experiment all ran\n %v, pinned stdout has\n %v", got, want)
	}
}

// TestBadInput: a value no entry answers to, or a negative count or scale,
// is a usage error (exit 2, naming the culprit) before any work — no
// calibration banner, no -out directory.
func TestBadInput(t *testing.T) {
	for _, c := range []struct {
		culprit string
		args    []string
	}{
		{`"nope"`, []string{"-experiment", "nope"}},
		{"-rho-points", []string{"-experiment", "fig2", "-servers", "4", "-queries", "1500", "-rho-points", "-1"}},
		{"-queries", []string{"-experiment", "fig2", "-servers", "4", "-rho-points", "2", "-queries", "-5"}},
		{"-servers", []string{"-experiment", "calibrate", "-servers", "-1"}},
		{"-seeds", []string{"-experiment", "calibrate", "-servers", "4", "-seeds", "-1"}},
		{"-max-seeds", []string{"-experiment", "calibrate", "-servers", "4", "-max-seeds", "-1"}},
		{"-compress", []string{"-experiment", "wiki", "-servers", "4", "-compress", "-5"}},
		{"-horizon-rho", []string{"-experiment", "calibrate", "-servers", "4", "-horizon-rho", "-0.5"}},
	} {
		t.Run(c.culprit, func(t *testing.T) {
			outDir := filepath.Join(t.TempDir(), "out")
			stdout, stderr, exit := runBench(t, append(c.args, "-out", outDir)...)
			if exit != 2 || !strings.Contains(stderr, c.culprit) || strings.Contains(stderr, "goroutine") {
				t.Errorf("exit %d, want 2 with %s named on stderr; stderr:\n%s", exit, c.culprit, stderr)
			}
			if strings.Contains(stdout, "== calibrate") {
				t.Errorf("calibrated before rejecting the input:\n%s", stdout)
			}
			if _, err := os.Stat(outDir); err == nil {
				t.Errorf("created %s before rejecting the input", outDir)
			}
		})
	}
	_, stderr, _ := runBench(t, "-experiment", "nope")
	for _, x := range experiments {
		if !strings.Contains(stderr, x.name) {
			t.Errorf("the unknown-experiment error does not list %q:\n%s", x.name, stderr)
		}
	}
}

// commandLine matches an srlb-bench invocation in prose, a shell snippet
// or a workflow step: the binary (under any path or suffix) and the run
// of "-flag [value]" tokens after it.
var (
	commandLine  = regexp.MustCompile("srlb-bench[\\w$./\"-]*((?:\\s+-[a-z][a-z0-9-]*(?:[ =][^\\s`);|>&#-][^\\s`);|>&#]*)?)+)")
	continuation = regexp.MustCompile(`\\\n\s*`)
	shellVar     = regexp.MustCompile(`\$\{?\w+\}?`)
	// ciPair is one "name:flags" element of the workflow's experiment loop.
	ciPair = regexp.MustCompile(`"([a-z0-9]+):(-[^"]*)"`)
)

// TestDocumentedCommandLines parses every srlb-bench command line the
// repo's documentation and workflow show with the real flag set and
// resolves its -experiment against the table, so a documented invocation
// that the binary would reject fails here.
func TestDocumentedCommandLines(t *testing.T) {
	root := filepath.Join("..", "..")
	files, err := filepath.Glob(filepath.Join(root, "docs", "*.md"))
	if err != nil {
		t.Fatal(err)
	}
	files = append(files, "main.go", filepath.Join(root, "doc.go"),
		filepath.Join(root, ".claude", "skills", "verify", "SKILL.md"),
		filepath.Join(root, ".github", "workflows", "ci.yml"))
	checked := 0
	var usage string
	for _, file := range files {
		raw, err := os.ReadFile(file)
		if err != nil {
			t.Fatal(err)
		}
		text := continuation.ReplaceAllString(string(raw), " ")
		if file == "main.go" {
			text = text[:strings.Index(text, "\npackage main")]
			usage += text
		} else if strings.HasSuffix(file, "TOPOLOGY.md") {
			usage += text
		}
		var lines []string
		for _, m := range commandLine.FindAllStringSubmatch(text, -1) {
			lines = append(lines, m[1])
		}
		for _, m := range ciPair.FindAllStringSubmatch(text, -1) {
			lines = append(lines, "-experiment "+m[1]+" "+m[2])
		}
		for _, line := range lines {
			// A shell variable reads as 1, which every flag type accepts —
			// except as the -experiment itself: that line is a loop body,
			// and its expansions are the name:flags pairs checked above.
			if strings.Contains(line, `-experiment "$`) || strings.Contains(line, "-experiment $") {
				continue
			}
			args := strings.Fields(strings.ReplaceAll(shellVar.ReplaceAllString(line, "1"), `"`, ""))
			if _, _, err := parseArgs(args); err != nil {
				t.Errorf("%s: srlb-bench%s: %v", file, line, err)
			}
			checked++
		}
	}
	if checked < 20 {
		t.Errorf("found only %d command lines — the extraction is broken", checked)
	}
	for _, x := range experiments {
		if !regexp.MustCompile(`-experiment ` + x.name + `\b`).MatchString(usage) {
			t.Errorf("-experiment %s appears neither in the package comment's usage block nor in docs/TOPOLOGY.md", x.name)
		}
	}
}
