package main

import (
	"bytes"
	"errors"
	"testing"
	"time"

	"srlb/internal/trace"
	"srlb/internal/wiki"
)

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
