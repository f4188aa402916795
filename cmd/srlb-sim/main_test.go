package main

import (
	"bytes"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"
)

// simBin is the srlb-sim binary TestMain builds once from this directory.
var simBin string

func TestMain(m *testing.M) {
	dir, err := os.MkdirTemp("", "srlb-sim-test")
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
	simBin = filepath.Join(dir, "srlb-sim")
	if out, err := exec.Command("go", "build", "-o", simBin, ".").CombinedOutput(); err != nil {
		fmt.Fprintf(os.Stderr, "go build: %v\n%s", err, out)
		os.RemoveAll(dir)
		os.Exit(1)
	}
	code := m.Run()
	os.RemoveAll(dir)
	os.Exit(code)
}

// TestBadInput: input srlb-sim cannot run is a usage error — exit 2 with
// one line on stderr naming the culprit, never a goroutine dump. The
// -queries case is a calibration whose probes never refuse: 500 queries
// fit in four servers' queues at any rate, so no drop onset exists.
func TestBadInput(t *testing.T) {
	for _, c := range []struct {
		culprit string
		args    []string
	}{
		{"-queries", []string{"-queries", "500", "-servers", "4"}},
		{`"nope"`, []string{"-workload", "nope"}},
		{`"x"`, []string{"-policy", "x"}},
	} {
		t.Run(c.culprit, func(t *testing.T) {
			var stdout, stderr bytes.Buffer
			cmd := exec.Command(simBin, c.args...)
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
		})
	}
}
