package experiments

import (
	"bytes"
	"encoding/json"
	"io"
	"regexp"
	"strings"
)

// column is one column of a row table: its header and how a row prints
// in it. Keeping the two together makes "as many cells as headers" hold
// by construction.
type column[R any] struct {
	header string
	cell   func(R) string
}

// Table is a row table rendered to text: the headers of its column list
// and each row's cells as the TSV prints them. An experiment's TSV block
// and its BENCH_*.json table (MarshalJSON) are both written from this
// one value, so the two cannot disagree.
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

// oneTable is the file of a result that is a single table.
func oneTable[R any](comment string, cols []column[R], rows []R) TSV {
	return TSV{Tables: []Table{newTable("", comment, cols, rows)}}
}

// indices is the row list of a table whose rows are positions in the
// result's parallel slices: 0, 1, …, n−1.
func indices(n int) []int {
	out := make([]int, n)
	for i := range out {
		out[i] = i
	}
	return out
}

// TSV is one TSV artifact as a value: an optional heading line, then
// its tables. Every TSV file the experiments produce is one, and Render
// is the one place their layout is decided:
//   - the heading, when set, is the file's first line, `# heading`;
//   - each table is a block: its `# comment` line, its tab-joined
//     headers, then one tab-joined line per row;
//   - a blank line follows every block when the file has a heading or
//     holds more than one table.
//
// So a single table is a bare block, a heading groups the blocks of one
// figure (one per policy, mode or scenario), and tables without a
// heading concatenate, each followed by a blank line.
type TSV struct {
	Heading string
	Tables  []Table
}

// Render writes the file to w in one Write call.
func (f TSV) Render(w io.Writer) error {
	var b bytes.Buffer
	if f.Heading != "" {
		b.WriteString("# " + f.Heading + "\n")
	}
	for _, t := range f.Tables {
		b.WriteString("# " + t.Comment + "\n" + strings.Join(t.Columns, "\t") + "\n")
		for _, row := range t.Rows {
			b.WriteString(strings.Join(row, "\t") + "\n")
		}
		if f.Heading != "" || len(f.Tables) > 1 {
			b.WriteString("\n")
		}
	}
	_, err := w.Write(b.Bytes())
	return err
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
