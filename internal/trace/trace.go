// Package trace renders experiment output: aligned text tables matching the
// rows the paper's tables and figures report, and CSV series for the raw
// curves (CDFs, scatters, sweeps).
package trace

import (
	"encoding/csv"
	"fmt"
	"io"
	"strings"
)

// Table is a titled grid of cells with a header row.
type Table struct {
	ID      string
	Title   string
	Columns []string
	Rows    [][]string
	Notes   []string
}

// New creates a table with the given identity and header.
func New(id, title string, columns ...string) *Table {
	return &Table{ID: id, Title: title, Columns: columns}
}

// Add appends one row. It panics if the cell count does not match the
// header — a malformed experiment table is a programming error.
func (t *Table) Add(cells ...string) {
	if len(cells) != len(t.Columns) {
		panic(fmt.Sprintf("trace: row has %d cells, table %s has %d columns", len(cells), t.ID, len(t.Columns)))
	}
	t.Rows = append(t.Rows, cells)
}

// Note appends a free-form footnote line.
func (t *Table) Note(format string, args ...any) {
	t.Notes = append(t.Notes, fmt.Sprintf(format, args...))
}

// Fprint writes the table as aligned text.
func (t *Table) Fprint(w io.Writer) {
	fmt.Fprintf(w, "%s — %s\n", t.ID, t.Title)
	widths := make([]int, len(t.Columns))
	for i, c := range t.Columns {
		widths[i] = len(c)
	}
	for _, row := range t.Rows {
		for i, cell := range row {
			if len(cell) > widths[i] {
				widths[i] = len(cell)
			}
		}
	}
	line := func(cells []string) {
		parts := make([]string, len(cells))
		for i, cell := range cells {
			parts[i] = fmt.Sprintf("%-*s", widths[i], cell)
		}
		fmt.Fprintf(w, "  %s\n", strings.TrimRight(strings.Join(parts, "  "), " "))
	}
	line(t.Columns)
	sep := make([]string, len(t.Columns))
	for i := range sep {
		sep[i] = strings.Repeat("-", widths[i])
	}
	line(sep)
	for _, row := range t.Rows {
		line(row)
	}
	for _, n := range t.Notes {
		fmt.Fprintf(w, "  note: %s\n", n)
	}
}

// String renders the table as text.
func (t *Table) String() string {
	var b strings.Builder
	t.Fprint(&b)
	return b.String()
}

// Series is a named curve: (X[i], Y[i]) points.
type Series struct {
	Name string
	X    []float64
	Y    []float64
}

// Append adds one point.
func (s *Series) Append(x, y float64) {
	s.X = append(s.X, x)
	s.Y = append(s.Y, y)
}

// Len reports the number of points.
func (s *Series) Len() int { return len(s.X) }

// WriteSeriesCSV writes the series side by side: one x/y column pair per
// series, rows padded with empty cells.
func WriteSeriesCSV(w io.Writer, series ...Series) error {
	cw := csv.NewWriter(w)
	header := make([]string, 0, 2*len(series))
	maxLen := 0
	for _, s := range series {
		header = append(header, s.Name+"_x", s.Name+"_y")
		if s.Len() > maxLen {
			maxLen = s.Len()
		}
	}
	if err := cw.Write(header); err != nil {
		return err
	}
	row := make([]string, 2*len(series))
	for i := 0; i < maxLen; i++ {
		for k, s := range series {
			if i < s.Len() {
				row[2*k] = F(s.X[i], 6)
				row[2*k+1] = F(s.Y[i], 6)
			} else {
				row[2*k] = ""
				row[2*k+1] = ""
			}
		}
		if err := cw.Write(row); err != nil {
			return err
		}
	}
	cw.Flush()
	return cw.Error()
}

// F formats a float with the given precision, trimming trailing zeros.
// Values that round to zero render as "0", never "-0": %f keeps the sign
// of tiny negatives (and of IEEE negative zero) through rounding, and a
// "-0" cell is table noise with no information in it.
func F(x float64, prec int) string {
	s := fmt.Sprintf("%.*f", prec, x)
	if strings.Contains(s, ".") {
		s = strings.TrimRight(s, "0")
		s = strings.TrimRight(s, ".")
	}
	if s == "-0" {
		s = "0"
	}
	return s
}

// Pct formats a fraction as a percentage with one decimal.
func Pct(frac float64) string { return fmt.Sprintf("%.1f%%", 100*frac) }

// Mbps formats a bits/s value in Mbps with two decimals.
func Mbps(bps float64) string { return fmt.Sprintf("%.2f Mbps", bps/1e6) }

// Ms formats a millisecond count.
func Ms(ms float64) string { return fmt.Sprintf("%.0f ms", ms) }

// DB formats a dB value with one decimal.
func DB(db float64) string { return fmt.Sprintf("%.1f dB", db) }
