package sim

import (
	"fmt"
	"io"
	"slices"
	"strings"
	"unicode/utf8"
)

// Table is one experiment's result: a titled grid with a caption tying
// it back to the paper's claim, plus free-form notes (fitted exponents,
// verdicts).
type Table struct {
	ID     string
	Title  string
	Claim  string
	Header []string
	Rows   [][]string
	Notes  []string
}

// AddRow appends a row of cells, formatting each with %v.
func (t *Table) AddRow(cells ...interface{}) {
	row := make([]string, len(cells))
	for i, c := range cells {
		switch v := c.(type) {
		case float64:
			row[i] = formatFloat(v)
		default:
			row[i] = fmt.Sprintf("%v", c)
		}
	}
	t.Rows = append(t.Rows, row)
}

// Note appends a formatted note line.
func (t *Table) Note(format string, args ...interface{}) {
	t.Notes = append(t.Notes, fmt.Sprintf(format, args...))
}

func formatFloat(v float64) string {
	abs := v
	if abs < 0 {
		abs = -abs
	}
	switch {
	case v == float64(int64(v)) && abs < 1e15:
		return fmt.Sprintf("%d", int64(v))
	case abs >= 1000:
		return fmt.Sprintf("%.0f", v)
	case abs >= 1:
		return fmt.Sprintf("%.2f", v)
	default:
		return fmt.Sprintf("%.4f", v)
	}
}

// Render writes the table as one section of GitHub-flavoured Markdown:
// heading, claim, a pipe table padded so a terminal shows it aligned, one
// bullet per note. The grid is as wide as its widest row; others are filled.
func (t *Table) Render(w io.Writer) error {
	var b strings.Builder
	fmt.Fprintf(&b, "## %s — %s\n\n", t.ID, t.Title)
	if t.Claim != "" {
		fmt.Fprintf(&b, "Claim — %s\n\n", t.Claim)
	}
	grid := append([][]string{t.Header}, t.Rows...)
	var widths []int
	for _, row := range grid {
		for i, cell := range row {
			if i == len(widths) {
				widths = append(widths, 3) // the shortest delimiter cell
			}
			widths[i] = max(widths[i], utf8.RuneCountInString(cell))
		}
	}
	delim := make([]string, len(widths))
	for i, wd := range widths {
		delim[i] = strings.Repeat("-", wd)
	}
	for _, row := range slices.Insert(grid, 1, delim) {
		for i, wd := range widths {
			cell := ""
			if i < len(row) {
				cell = row[i]
			}
			fmt.Fprintf(&b, "| %-*s ", wd, cell)
		}
		b.WriteString("|\n")
	}
	if len(t.Notes) > 0 {
		b.WriteByte('\n')
	}
	for _, n := range t.Notes {
		fmt.Fprintf(&b, "- %s\n", n)
	}
	_, err := io.WriteString(w, b.String())
	return err
}
