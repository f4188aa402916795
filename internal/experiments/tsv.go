package experiments

import (
	"encoding/json"
	"fmt"
	"io"
	"regexp"
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

// Table is a row table rendered to text: the headers of its column list
// and each row's cells as the TSV prints them. An experiment's TSV block
// (WriteTSV) and its BENCH_*.json table (MarshalJSON) are both written
// from this one value, so the two cannot disagree.
type Table struct {
	Name, Comment string
	Columns       []string
	Rows          [][]string
}

// newTable renders rows through cols.
func newTable[R any](name, comment string, cols []column[R], rows []R) Table {
	t := Table{Name: name, Comment: comment, Columns: make([]string, len(cols)), Rows: make([][]string, len(rows))}
	for i, c := range cols {
		t.Columns[i] = c.header
	}
	for j, row := range rows {
		t.Rows[j] = make([]string, len(cols))
		for i, c := range cols {
			t.Rows[j][i] = c.cell(row)
		}
	}
	return t
}

// WriteTSV writes the table's TSV block: the `# comment` line, the
// tab-joined headers, then one tab-joined line per row.
func (t Table) WriteTSV(w io.Writer) error {
	tw := tsvWriter{w: w}
	tw.printf("# %s\n%s\n", t.Comment, strings.Join(t.Columns, "\t"))
	for _, row := range t.Rows {
		tw.printf("%s\n", strings.Join(row, "\t"))
	}
	return tw.err
}

// writeTable writes the TSV block of a row table.
func writeTable[R any](w io.Writer, comment string, cols []column[R], rows []R) error {
	return newTable("", comment, cols, rows).WriteTSV(w)
}

// jsonNumber is the JSON number grammar (RFC 8259 §6). strconv.ParseFloat
// would also take NaN, Inf, hex and 1_000, which json.Marshal rejects.
var jsonNumber = regexp.MustCompile(`^-?(0|[1-9][0-9]*)(\.[0-9]+)?([eE][+-]?[0-9]+)?$`)

// MarshalJSON writes the table as {name, comment, columns, rows}. A cell
// is exactly its TSV text: a JSON number with the same digits when the
// text is a number literal, a string otherwise.
func (t Table) MarshalJSON() ([]byte, error) {
	rows := make([][]any, len(t.Rows))
	for j, row := range t.Rows {
		rows[j] = make([]any, len(row))
		for i, cell := range row {
			rows[j][i] = cell
			if jsonNumber.MatchString(cell) {
				rows[j][i] = json.Number(cell)
			}
		}
	}
	return json.Marshal(struct {
		Name    string   `json:"name"`
		Comment string   `json:"comment"`
		Columns []string `json:"columns"`
		Rows    [][]any  `json:"rows"`
	}{t.Name, t.Comment, t.Columns, rows})
}
