// Package report renders aligned text tables and CSV for the experiment
// drivers and command-line tools.
package report

import (
	"fmt"
	"strings"
)

// Table is a simple column-aligned table.
type Table struct {
	Title   string
	Headers []string
	Rows    [][]string
}

// New creates a table.
func New(title string, headers ...string) *Table {
	return &Table{Title: title, Headers: headers}
}

// Add appends a row; missing cells render empty.
func (t *Table) Add(cells ...string) {
	t.Rows = append(t.Rows, cells)
}

// String renders the aligned table.
func (t *Table) String() string {
	cols := len(t.Headers)
	for _, r := range t.Rows {
		if len(r) > cols {
			cols = len(r)
		}
	}
	width := make([]int, cols)
	measure := func(r []string) {
		for i, c := range r {
			if len(c) > width[i] {
				width[i] = len(c)
			}
		}
	}
	measure(t.Headers)
	for _, r := range t.Rows {
		measure(r)
	}

	var sb strings.Builder
	if t.Title != "" {
		sb.WriteString(t.Title)
		sb.WriteByte('\n')
	}
	line := func(r []string) {
		for i := 0; i < cols; i++ {
			c := ""
			if i < len(r) {
				c = r[i]
			}
			if i > 0 {
				sb.WriteString("  ")
			}
			fmt.Fprintf(&sb, "%-*s", width[i], c)
		}
		sb.WriteByte('\n')
	}
	if len(t.Headers) > 0 {
		line(t.Headers)
		total := 0
		for _, w := range width {
			total += w
		}
		sb.WriteString(strings.Repeat("-", total+2*(cols-1)))
		sb.WriteByte('\n')
	}
	for _, r := range t.Rows {
		line(r)
	}
	return sb.String()
}

// CSV renders the table as comma-separated values (cells containing commas
// or quotes are quoted).
func (t *Table) CSV() string {
	var sb strings.Builder
	row := func(r []string) {
		for i, c := range r {
			if i > 0 {
				sb.WriteByte(',')
			}
			if strings.ContainsAny(c, ",\"\n") {
				sb.WriteByte('"')
				sb.WriteString(strings.ReplaceAll(c, `"`, `""`))
				sb.WriteByte('"')
			} else {
				sb.WriteString(c)
			}
		}
		sb.WriteByte('\n')
	}
	if len(t.Headers) > 0 {
		row(t.Headers)
	}
	for _, r := range t.Rows {
		row(r)
	}
	return sb.String()
}
