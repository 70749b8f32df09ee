// Package bench is the experiment harness: one Run function per table and
// figure of the paper's evaluation (§VI), each regenerating the same rows or
// series the paper reports. End-to-end comparisons (Figures 11/12/13/16)
// combine measured CPU kernel time with the hw package's device/interconnect
// cost model; microbenchmarks (Figures 14/17/18) are pure measured compute.
// cmd/elrec-bench and the root bench_test.go both drive this package.
package bench

import (
	"fmt"
	"io"
	"strings"
)

// Result is one experiment's regenerated table: a header plus data rows,
// with free-form notes recording parameters and caveats.
type Result struct {
	ID     string
	Title  string
	Header []string
	Rows   [][]string
	Notes  []string
}

// addRow appends one formatted row.
func (r *Result) addRow(cells ...string) {
	r.Rows = append(r.Rows, cells)
}

// addNote appends a formatted note line.
func (r *Result) addNote(format string, args ...any) {
	r.Notes = append(r.Notes, fmt.Sprintf(format, args...))
}

// Fprint renders the result as an aligned text table.
func (r *Result) Fprint(w io.Writer) {
	fmt.Fprintf(w, "== %s: %s ==\n", r.ID, r.Title)
	widths := make([]int, len(r.Header))
	for i, h := range r.Header {
		widths[i] = len(h)
	}
	for _, row := range r.Rows {
		for i, c := range row {
			if i < len(widths) && len(c) > widths[i] {
				widths[i] = len(c)
			}
		}
	}
	printRow := func(cells []string) {
		parts := make([]string, len(cells))
		for i, c := range cells {
			if i < len(widths) {
				parts[i] = pad(c, widths[i])
			} else {
				parts[i] = c
			}
		}
		fmt.Fprintln(w, strings.TrimRight(strings.Join(parts, "  "), " "))
	}
	printRow(r.Header)
	sep := make([]string, len(r.Header))
	for i := range sep {
		sep[i] = strings.Repeat("-", widths[i])
	}
	printRow(sep)
	for _, row := range r.Rows {
		printRow(row)
	}
	for _, n := range r.Notes {
		fmt.Fprintf(w, "note: %s\n", n)
	}
}

// String renders the result to a string.
func (r *Result) String() string {
	var b strings.Builder
	r.Fprint(&b)
	return b.String()
}

func pad(s string, w int) string {
	if len(s) >= w {
		return s
	}
	return s + strings.Repeat(" ", w-len(s))
}

// f2 formats a float with 2 decimals; fx formats a speedup like "3.01x".
func f2(v float64) string { return fmt.Sprintf("%.2f", v) }
func fx(v float64) string { return fmt.Sprintf("%.2fx", v) }
