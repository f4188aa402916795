// Package trace defines the access-trace format used by the Wikipedia
// replay (§VI): a line-oriented text file with millisecond timestamps and
// request URLs, in the spirit of the WikiBench traces the paper replays
// ("a traffic generator able to replay a MediaWiki access trace with
// millisecond granularity").
//
// Format (one request per line, '#' comments allowed):
//
//	<timestamp_ms> <url>
//
// Timestamps are milliseconds from trace start, non-decreasing.
package trace

import (
	"bufio"
	"errors"
	"fmt"
	"io"
	"math"
	"strconv"
	"strings"
	"time"
)

// Entry is one trace record.
type Entry struct {
	// At is the request time relative to trace start.
	At time.Duration
	// URL is the request target.
	URL string
}

// IsWikiPage reports whether the URL is a dynamic wiki-page request —
// the class the paper analyzes separately, "identifiable by the string
// /wiki/index.php in their URL" (§VI-C).
func (e Entry) IsWikiPage() bool {
	return strings.Contains(e.URL, "/wiki/index.php")
}

// ErrBadLine reports a malformed trace line.
var ErrBadLine = errors.New("trace: malformed line")

// urlSpace is the whitespace a URL may not contain: the field separator
// and anything a reader would take for one.
const urlSpace = " \t\n"

// Writer streams entries to a trace file.
type Writer struct {
	w    *bufio.Writer
	last time.Duration
	n    int
}

// NewWriter wraps w.
func NewWriter(w io.Writer) *Writer {
	return &Writer{w: bufio.NewWriter(w)}
}

// Write appends one entry. Entries must be time-ordered.
func (tw *Writer) Write(e Entry) error {
	if e.At < tw.last {
		return fmt.Errorf("trace: out-of-order entry at %v after %v", e.At, tw.last)
	}
	if strings.ContainsAny(e.URL, urlSpace) {
		return fmt.Errorf("trace: URL contains whitespace: %q", e.URL)
	}
	tw.last = e.At
	tw.n++
	_, err := fmt.Fprintf(tw.w, "%d %s\n", e.At.Milliseconds(), e.URL)
	return err
}

// Count returns the number of entries written.
func (tw *Writer) Count() int { return tw.n }

// Flush flushes buffered output.
func (tw *Writer) Flush() error { return tw.w.Flush() }

// Reader streams entries from a trace file.
type Reader struct {
	sc   *bufio.Scanner
	line int
	last time.Duration
}

// NewReader wraps r.
func NewReader(r io.Reader) *Reader {
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 64*1024), 1024*1024)
	return &Reader{sc: sc}
}

// Next returns the next entry, io.EOF at end of trace.
func (tr *Reader) Next() (Entry, error) {
	for tr.sc.Scan() {
		tr.line++
		line := strings.TrimSpace(tr.sc.Text())
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		ms, url, ok := strings.Cut(line, " ")
		if !ok {
			return Entry{}, fmt.Errorf("%w %d: %q", ErrBadLine, tr.line, line)
		}
		t, err := strconv.ParseInt(ms, 10, 64)
		if err != nil || t < 0 || t > math.MaxInt64/int64(time.Millisecond) {
			return Entry{}, fmt.Errorf("%w %d: bad timestamp %q", ErrBadLine, tr.line, ms)
		}
		e := Entry{At: time.Duration(t) * time.Millisecond, URL: strings.TrimSpace(url)}
		if strings.ContainsAny(e.URL, urlSpace) {
			return Entry{}, fmt.Errorf("%w %d: URL contains whitespace: %q", ErrBadLine, tr.line, e.URL)
		}
		if e.At < tr.last {
			return Entry{}, fmt.Errorf("%w %d: timestamp goes backwards", ErrBadLine, tr.line)
		}
		tr.last = e.At
		return e, nil
	}
	if err := tr.sc.Err(); err != nil {
		return Entry{}, err
	}
	return Entry{}, io.EOF
}

// ReadAll consumes the whole trace.
func ReadAll(r io.Reader) ([]Entry, error) {
	tr := NewReader(r)
	var out []Entry
	for {
		e, err := tr.Next()
		if err == io.EOF {
			return out, nil
		}
		if err != nil {
			return nil, err
		}
		out = append(out, e)
	}
}
