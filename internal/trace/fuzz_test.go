package trace_test

import (
	"bytes"
	"slices"
	"strings"
	"testing"
	"time"

	"srlb/internal/trace"
	"srlb/internal/wiki"
)

// FuzzTraceRead feeds the reader arbitrary bytes: it must never panic,
// everything it accepts must satisfy the format's invariants, and what
// it accepted must survive Writer → Reader unchanged.
func FuzzTraceRead(f *testing.F) {
	var day bytes.Buffer
	if _, _, err := wiki.Synthesize(wiki.Config{Seed: 3, Horizon: time.Minute}, trace.NewWriter(&day)); err != nil {
		f.Fatal(err)
	}
	f.Add(day.Bytes()[:4096])
	f.Add([]byte("# a comment\n\n100 /x\n   \n200  /y \r\n"))
	f.Add([]byte("18446744073710 /x\n"))
	f.Add([]byte("9223372036855 /x\n"))
	f.Add([]byte("5 /a b\n7\n-1 /x\n"))
	f.Add(append(append([]byte("1 /"), bytes.Repeat([]byte("a"), 2<<20)...), '\n'))

	f.Fuzz(func(t *testing.T, data []byte) {
		var accepted []trace.Entry
		tr := trace.NewReader(bytes.NewReader(data))
		for {
			e, err := tr.Next()
			if err != nil {
				break // io.EOF or a rejected line: the reader stops either way
			}
			if e.At < 0 || e.At%time.Millisecond != 0 {
				t.Fatalf("accepted timestamp %v", e.At)
			}
			if n := len(accepted); n > 0 && e.At < accepted[n-1].At {
				t.Fatalf("timestamps decrease: %v after %v", e.At, accepted[n-1].At)
			}
			if e.URL == "" || strings.ContainsAny(e.URL, " \t\n") {
				t.Fatalf("accepted URL %q", e.URL)
			}
			accepted = append(accepted, e)
		}

		var buf bytes.Buffer
		w := trace.NewWriter(&buf)
		for _, e := range accepted {
			if err := w.Write(e); err != nil {
				t.Fatalf("an entry that was read cannot be written: %v", err)
			}
		}
		if err := w.Flush(); err != nil {
			t.Fatal(err)
		}
		back, err := trace.ReadAll(&buf)
		if err != nil {
			t.Fatalf("re-reading a written trace: %v", err)
		}
		if !slices.Equal(back, accepted) {
			t.Fatalf("round trip changed the entries:\n got %v\nwant %v", back, accepted)
		}
	})
}
