package experiments

import (
	"fmt"
	"io"
	"strings"
)

// tsvWriter is how every artifact writer of the package emits text:
// printf-style calls against a sticky first error. After a failed write
// the later calls are no-ops, so a writer body reads straight through
// and ends with `return t.err` — no call's result can be dropped, and a
// truncated artifact never comes back with a nil error.
type tsvWriter struct {
	w   io.Writer
	err error
}

func (t *tsvWriter) printf(format string, args ...any) {
	if t.err == nil {
		_, t.err = fmt.Fprintf(t.w, format, args...)
	}
}

// column is one column of a row table: its header and how a row prints
// in it. Keeping the two together makes "as many cells as headers" hold
// by construction.
type column[R any] struct {
	header string
	cell   func(R) string
}

// writeTable renders a row table: the `# comment` line, the tab-joined
// headers, then one tab-joined line per row.
func writeTable[R any](w io.Writer, comment string, cols []column[R], rows []R) error {
	t := tsvWriter{w: w}
	t.printf("# %s\n", comment)
	cells := make([]string, len(cols))
	for i, c := range cols {
		cells[i] = c.header
	}
	t.printf("%s\n", strings.Join(cells, "\t"))
	for _, row := range rows {
		for i, c := range cols {
			cells[i] = c.cell(row)
		}
		t.printf("%s\n", strings.Join(cells, "\t"))
	}
	return t.err
}
