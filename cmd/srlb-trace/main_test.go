package main

import (
	"bytes"
	"errors"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"srlb/internal/trace"
	"srlb/internal/wiki"
)

// traceBin is the srlb-trace binary TestMain builds once from this
// directory.
var traceBin string

func TestMain(m *testing.M) {
	dir, err := os.MkdirTemp("", "srlb-trace-test")
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
	traceBin = filepath.Join(dir, "srlb-trace")
	if out, err := exec.Command("go", "build", "-o", traceBin, ".").CombinedOutput(); err != nil {
		fmt.Fprintf(os.Stderr, "go build: %v\n%s", err, out)
		os.RemoveAll(dir)
		os.Exit(1)
	}
	code := m.Run()
	os.RemoveAll(dir)
	os.Exit(code)
}

// TestBadInput: a day srlb-trace cannot synthesize is a usage error —
// exit 2 with one line on stderr naming the flag, never a goroutine dump
// or an empty trace — and it is refused before -out is created, so an
// existing file keeps its contents.
func TestBadInput(t *testing.T) {
	for _, c := range []struct {
		culprit string
		args    []string
	}{
		{"-scale", []string{"-scale", "-1"}},
		{"-peak", []string{"-peak", "-5"}},
		{"-trough", []string{"-trough", "NaN"}},
		{"-compress is a compression factor", []string{"-compress", "1e-9"}},
		{"-compress must", []string{"-compress", "-1"}},
		{"-hours must", []string{"-hours", "-1"}},
		{"-hours must be a finite", []string{"-hours", "Inf"}},
		{"-hours 1e+09", []string{"-hours", "1e9"}},
	} {
		t.Run(c.culprit, func(t *testing.T) {
			out := filepath.Join(t.TempDir(), "day.trace")
			const kept = "0 /kept\n"
			if err := os.WriteFile(out, []byte(kept), 0o644); err != nil {
				t.Fatal(err)
			}
			var stdout, stderr bytes.Buffer
			cmd := exec.Command(traceBin, append([]string{"-out", out}, c.args...)...)
			cmd.Stdout, cmd.Stderr = &stdout, &stderr
			err := cmd.Run()
			exit := 0
			if ee, ok := err.(*exec.ExitError); ok {
				exit = ee.ExitCode()
			} else if err != nil {
				t.Fatal(err)
			}
			msg := stderr.String()
			if exit != 2 || !strings.Contains(msg, c.culprit) || strings.Count(msg, "\n") != 1 {
				t.Errorf("exit %d, want 2 with one line naming %s; stderr:\n%s", exit, c.culprit, msg)
			}
			if stdout.Len() != 0 {
				t.Errorf("printed a result for input it should refuse:\n%s", stdout.String())
			}
			if got, err := os.ReadFile(out); err != nil || string(got) != kept {
				t.Errorf("-out was touched: %q, %v", got, err)
			}
		})
	}
}

// A rate so small that no request arrives within the day is a legal,
// empty day: exit 0, zero requests reported and an empty -out. The
// inter-arrival gap used to overflow a time.Duration and fail with an
// out-of-order entry.
func TestTinyRateWritesAnEmptyDay(t *testing.T) {
	for _, args := range [][]string{
		{"-scale", "1e-300"},
		{"-peak", "1e-300", "-trough", "1e-300"},
	} {
		t.Run(strings.Join(args, " "), func(t *testing.T) {
			out := filepath.Join(t.TempDir(), "day.trace")
			cmd := exec.Command(traceBin, append([]string{"-out", out, "-hours", "1"}, args...)...)
			var stderr bytes.Buffer
			cmd.Stderr = &stderr
			stdout, err := cmd.Output()
			if err != nil {
				t.Fatalf("%v; stderr:\n%s", err, stderr.String())
			}
			if !strings.Contains(string(stdout), ": 0 wiki-page + 0 static requests") {
				t.Errorf("stdout %q does not report an empty day", stdout)
			}
			if got, err := os.ReadFile(out); err != nil || len(got) != 0 {
				t.Errorf("-out holds %q (%v), want an empty trace", got, err)
			}
		})
	}
}

// closeRecorder is an in-memory file whose Close can fail.
type closeRecorder struct {
	bytes.Buffer
	closed   int
	closeErr error
}

func (c *closeRecorder) Close() error {
	c.closed++
	return c.closeErr
}

func TestSynthesizeClosesAndReportsCloseError(t *testing.T) {
	cfg := wiki.Config{Seed: 3, Horizon: time.Hour, Compression: 3600}

	var ok closeRecorder
	wikiN, statN, err := synthesize(&ok, cfg)
	if err != nil || ok.closed != 1 {
		t.Fatalf("err = %v, closed %d times", err, ok.closed)
	}
	entries, err := trace.ReadAll(&ok.Buffer)
	if err != nil || len(entries) != wikiN+statN || len(entries) == 0 {
		t.Fatalf("read back %d entries (%v), wrote %d + %d", len(entries), err, wikiN, statN)
	}

	// A failed Close means the data may not be on disk: it must not be
	// reported as written.
	full := closeRecorder{closeErr: errors.New("disk full")}
	if _, _, err := synthesize(&full, cfg); !errors.Is(err, full.closeErr) {
		t.Fatalf("err = %v, want the Close error", err)
	}
}
