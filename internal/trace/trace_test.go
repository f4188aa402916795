package trace

import (
	"bytes"
	"errors"
	"io"
	"strings"
	"testing"
	"time"
)

func TestWriteReadRoundTrip(t *testing.T) {
	var buf bytes.Buffer
	w := NewWriter(&buf)
	entries := []Entry{
		{At: 0, URL: "/wiki/index.php?title=Article_1"},
		{At: 150 * time.Millisecond, URL: "/w/static/obj_3.css"},
		{At: 150 * time.Millisecond, URL: "/wiki/index.php?title=Article_9"},
		{At: 2 * time.Second, URL: "/wiki/index.php?title=Article_1"},
	}
	for _, e := range entries {
		if err := w.Write(e); err != nil {
			t.Fatal(err)
		}
	}
	if w.Count() != len(entries) {
		t.Fatalf("count = %d", w.Count())
	}
	if err := w.Flush(); err != nil {
		t.Fatal(err)
	}
	got, err := ReadAll(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != len(entries) {
		t.Fatalf("read %d entries", len(got))
	}
	for i := range entries {
		if got[i] != entries[i] {
			t.Fatalf("entry %d: %+v != %+v", i, got[i], entries[i])
		}
	}
}

func TestWriterRejectsOutOfOrder(t *testing.T) {
	w := NewWriter(io.Discard)
	if err := w.Write(Entry{At: time.Second, URL: "/a"}); err != nil {
		t.Fatal(err)
	}
	if err := w.Write(Entry{At: 0, URL: "/b"}); err == nil {
		t.Fatal("out-of-order entry accepted")
	}
}

func TestWriterRejectsWhitespaceURL(t *testing.T) {
	w := NewWriter(io.Discard)
	if err := w.Write(Entry{URL: "/a b"}); err == nil {
		t.Fatal("whitespace URL accepted")
	}
}

func TestReaderSkipsCommentsAndBlanks(t *testing.T) {
	in := "# a comment\n\n100 /x\n   \n200 /y\n"
	got, err := ReadAll(strings.NewReader(in))
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 2 || got[0].URL != "/x" || got[1].URL != "/y" {
		t.Fatalf("got %+v", got)
	}
}

func TestReaderErrors(t *testing.T) {
	cases := map[string]string{
		"no url":       "100\n",
		"bad ts":       "abc /x\n",
		"negative ts":  "-5 /x\n",
		"out of order": "100 /x\n50 /y\n",
		"space in url": "5 /a b\n",
		"tab in url":   "5 /a\tb\n",
	}
	for name, in := range cases {
		t.Run(name, func(t *testing.T) {
			_, err := ReadAll(strings.NewReader(in))
			if !errors.Is(err, ErrBadLine) {
				t.Fatalf("err = %v, want ErrBadLine", err)
			}
		})
	}
}

// A millisecond count that does not fit a time.Duration is a bad
// timestamp — not a wrapped small one, and not "goes backwards".
func TestReaderRejectsOverflowingTimestamp(t *testing.T) {
	for _, ms := range []string{"18446744073710", "9223372036855"} {
		_, err := ReadAll(strings.NewReader(ms + " /x\n"))
		if !errors.Is(err, ErrBadLine) || !strings.Contains(err.Error(), "bad timestamp") {
			t.Errorf("%s ms: err = %v, want ErrBadLine (bad timestamp)", ms, err)
		}
	}
	got, err := ReadAll(strings.NewReader("9223372036854 /x\n"))
	if err != nil || len(got) != 1 || got[0].At != 9223372036854*time.Millisecond {
		t.Fatalf("largest representable timestamp: %v, %v", got, err)
	}
}

// A URL longer than MaxURLLen is a bad line: replay would put it in one
// request payload, and past the packet limit the network refuses it.
func TestReaderRejectsOverlongURL(t *testing.T) {
	for _, n := range []int{MaxURLLen + 1, 70000} {
		_, err := ReadAll(strings.NewReader("1 /" + strings.Repeat("a", n-1) + "\n"))
		if !errors.Is(err, ErrBadLine) {
			t.Errorf("%d-byte URL: err = %v, want ErrBadLine", n, err)
		}
	}
	url := "/" + strings.Repeat("a", MaxURLLen-1)
	got, err := ReadAll(strings.NewReader("1 " + url + "\n"))
	if err != nil || len(got) != 1 || got[0].URL != url {
		t.Fatalf("%d-byte URL: %d entries, %v", MaxURLLen, len(got), err)
	}
	if err := NewWriter(io.Discard).Write(Entry{URL: url + "a"}); err == nil {
		t.Fatal("writer accepted an overlong URL")
	}
}

func TestIsWikiPage(t *testing.T) {
	if !(Entry{URL: "/wiki/index.php?title=Main"}).IsWikiPage() {
		t.Fatal("wiki page not classified")
	}
	if (Entry{URL: "/w/static/logo.png"}).IsWikiPage() {
		t.Fatal("static object misclassified")
	}
}

func TestMillisecondGranularity(t *testing.T) {
	var buf bytes.Buffer
	w := NewWriter(&buf)
	// Sub-millisecond offsets truncate to the ms grid.
	if err := w.Write(Entry{At: 1500 * time.Microsecond, URL: "/x"}); err != nil {
		t.Fatal(err)
	}
	w.Flush()
	got, err := ReadAll(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if got[0].At != time.Millisecond {
		t.Fatalf("At = %v, want 1ms", got[0].At)
	}
}

func BenchmarkWrite(b *testing.B) {
	w := NewWriter(io.Discard)
	e := Entry{At: 0, URL: "/wiki/index.php?title=Article_12345"}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		e.At = time.Duration(i) * time.Millisecond
		if err := w.Write(e); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkRead(b *testing.B) {
	var buf bytes.Buffer
	w := NewWriter(&buf)
	for i := 0; i < 10000; i++ {
		w.Write(Entry{At: time.Duration(i) * time.Millisecond, URL: "/wiki/index.php?title=Article_1"})
	}
	w.Flush()
	data := buf.Bytes()
	b.ResetTimer()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		r := NewReader(bytes.NewReader(data))
		for {
			if _, err := r.Next(); err == io.EOF {
				break
			} else if err != nil {
				b.Fatal(err)
			}
		}
	}
}
