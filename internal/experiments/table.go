package experiments

import (
	"fmt"
	"strings"
)

// Table is a rendered experiment result: a title, column headers and string
// cells, printable as aligned text or CSV.
type Table struct {
	Title  string
	Header []string
	Rows   [][]string
	// Notes hold provenance (scale, seeds, expected shape vs the paper).
	Notes []string
}

// AddRow appends a row of cells.
func (t *Table) AddRow(cells ...string) { t.Rows = append(t.Rows, cells) }

// String renders the table as aligned monospace text.
func (t *Table) String() string {
	var sb strings.Builder
	if t.Title != "" {
		sb.WriteString(t.Title + "\n")
		sb.WriteString(strings.Repeat("=", len(t.Title)) + "\n")
	}
	widths := make([]int, len(t.Header))
	for i, h := range t.Header {
		widths[i] = len(h)
	}
	for _, row := range t.Rows {
		for i, c := range row {
			if i < len(widths) && len(c) > widths[i] {
				widths[i] = len(c)
			}
		}
	}
	writeRow := func(cells []string) {
		for i, c := range cells {
			if i > 0 {
				sb.WriteString("  ")
			}
			if i < len(widths) {
				fmt.Fprintf(&sb, "%-*s", widths[i], c)
			} else {
				sb.WriteString(c)
			}
		}
		sb.WriteString("\n")
	}
	writeRow(t.Header)
	sep := make([]string, len(t.Header))
	for i := range sep {
		sep[i] = strings.Repeat("-", widths[i])
	}
	writeRow(sep)
	for _, row := range t.Rows {
		writeRow(row)
	}
	for _, n := range t.Notes {
		sb.WriteString("note: " + n + "\n")
	}
	return sb.String()
}

func f2(v float64) string { return fmt.Sprintf("%.2f", v) }
