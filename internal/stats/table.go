package stats

import (
	"fmt"
	"io"
	"strings"
)

// Table is a simple fixed-width text table used by the experiment
// harnesses to print figure/table data the way the paper reports it.
type Table struct {
	Title   string
	Headers []string
	rows    [][]string
}

// NewTable creates a table with a title and column headers.
func NewTable(title string, headers ...string) *Table {
	return &Table{Title: title, Headers: headers}
}

// AddRow appends a row; cells are formatted with %v.
func (t *Table) AddRow(cells ...any) {
	row := make([]string, len(cells))
	for i, c := range cells {
		switch v := c.(type) {
		case float64:
			row[i] = fmt.Sprintf("%.3f", v)
		case float32:
			row[i] = fmt.Sprintf("%.3f", v)
		default:
			row[i] = fmt.Sprint(c)
		}
	}
	t.rows = append(t.rows, row)
}

// Write renders the table.
func (t *Table) Write(w io.Writer) {
	widths := make([]int, len(t.Headers))
	for i, h := range t.Headers {
		widths[i] = len(h)
	}
	for _, row := range t.rows {
		for i, c := range row {
			if i < len(widths) && len(c) > widths[i] {
				widths[i] = len(c)
			}
		}
	}
	if t.Title != "" {
		fmt.Fprintf(w, "== %s ==\n", t.Title)
	}
	for i, h := range t.Headers {
		fmt.Fprintf(w, "%-*s  ", widths[i], h)
	}
	fmt.Fprintln(w)
	total := 0
	for _, wd := range widths {
		total += wd + 2
	}
	fmt.Fprintln(w, strings.Repeat("-", total))
	for _, row := range t.rows {
		for i, c := range row {
			if i < len(widths) {
				fmt.Fprintf(w, "%-*s  ", widths[i], c)
			}
		}
		fmt.Fprintln(w)
	}
}
