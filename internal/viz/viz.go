// Package viz renders OLAP results as text: bar charts, grouped bar
// charts, histograms and crosstabs. It stands in for the charting surface
// of the BI tool in the paper's Figs 4–6 — the same aggregates, drawn in a
// terminal.
package viz

import (
	"fmt"
	"io"
	"strings"

	"github.com/ddgms/ddgms/internal/cube"
)

// maxBarWidth is the bar length, in characters, of the largest value.
const maxBarWidth = 40

// BarChart draws one horizontal bar per label. Values must be
// non-negative; the largest value spans maxBarWidth characters.
func BarChart(w io.Writer, title string, labels []string, values []float64) error {
	if len(labels) != len(values) {
		return fmt.Errorf("viz: %d labels but %d values", len(labels), len(values))
	}
	var max float64
	labelWidth := 0
	for i, v := range values {
		if v < 0 {
			return fmt.Errorf("viz: negative value %g for %q", v, labels[i])
		}
		if v > max {
			max = v
		}
		if len(labels[i]) > labelWidth {
			labelWidth = len(labels[i])
		}
	}
	if title != "" {
		fmt.Fprintln(w, title)
	}
	for i, v := range values {
		n := 0
		if max > 0 {
			n = int(v / max * maxBarWidth)
		}
		if v > 0 && n == 0 {
			n = 1 // never render a non-zero value as empty
		}
		fmt.Fprintf(w, "  %-*s | %-*s %g\n", labelWidth, labels[i], maxBarWidth, strings.Repeat("█", n), v)
	}
	return nil
}

// GroupedBarChart draws a cell set as grouped bars: one group per result
// row, one bar per result column — the layout of the paper's Figs 5–6.
func GroupedBarChart(w io.Writer, title string, cs *cube.CellSet) error {
	if title != "" {
		fmt.Fprintln(w, title)
	}
	var max float64
	seriesWidth := 0
	for j := 0; j < cs.Columns(); j++ {
		if n := len(cs.ColLabel(j)); n > seriesWidth {
			seriesWidth = n
		}
	}
	for i := 0; i < cs.Rows(); i++ {
		for j := 0; j < cs.Columns(); j++ {
			if v := cs.CellFloat(i, j); v > max {
				max = v
			}
		}
	}
	for i := 0; i < cs.Rows(); i++ {
		fmt.Fprintf(w, "  %s\n", cs.RowLabel(i))
		for j := 0; j < cs.Columns(); j++ {
			v := cs.CellFloat(i, j)
			n := 0
			if max > 0 {
				n = int(v / max * maxBarWidth)
			}
			if v > 0 && n == 0 {
				n = 1
			}
			cell := cs.Cell(i, j)
			disp := cell.String()
			fmt.Fprintf(w, "    %-*s | %-*s %s\n", seriesWidth, cs.ColLabel(j), maxBarWidth, strings.Repeat("█", n), disp)
		}
	}
	return nil
}

// CrossTab renders a cell set as an aligned table with row and column
// headers, the textual twin of the BI Studio query grid in Fig 4.
func CrossTab(w io.Writer, title string, cs *cube.CellSet) error {
	if title != "" {
		fmt.Fprintln(w, title)
	}
	rowHeaderWidth := 0
	for i := 0; i < cs.Rows(); i++ {
		if n := len(cs.RowLabel(i)); n > rowHeaderWidth {
			rowHeaderWidth = n
		}
	}
	colWidths := make([]int, cs.Columns())
	for j := range colWidths {
		colWidths[j] = len(cs.ColLabel(j))
		for i := 0; i < cs.Rows(); i++ {
			if n := len(cs.Cell(i, j).String()); n > colWidths[j] {
				colWidths[j] = n
			}
		}
	}
	// Header.
	fmt.Fprintf(w, "  %-*s", rowHeaderWidth, "")
	for j := 0; j < cs.Columns(); j++ {
		fmt.Fprintf(w, "  %*s", colWidths[j], cs.ColLabel(j))
	}
	fmt.Fprintln(w)
	for i := 0; i < cs.Rows(); i++ {
		fmt.Fprintf(w, "  %-*s", rowHeaderWidth, cs.RowLabel(i))
		for j := 0; j < cs.Columns(); j++ {
			cell := cs.Cell(i, j)
			disp := cell.String()
			if cell.IsNA() {
				disp = "."
			}
			fmt.Fprintf(w, "  %*s", colWidths[j], disp)
		}
		fmt.Fprintln(w)
	}
	return nil
}

// CrossTabWithTotals renders a cell set like CrossTab with an extra
// "total" column and row of axis sums — the margin view BI tools offer.
func CrossTabWithTotals(w io.Writer, title string, cs *cube.CellSet) error {
	if title != "" {
		fmt.Fprintln(w, title)
	}
	rowTotals := cs.RowTotals()
	colTotals := cs.ColTotals()
	grand := cs.Total()

	rowHeaderWidth := len("total")
	for i := 0; i < cs.Rows(); i++ {
		if n := len(cs.RowLabel(i)); n > rowHeaderWidth {
			rowHeaderWidth = n
		}
	}
	colWidths := make([]int, cs.Columns()+1)
	for j := 0; j < cs.Columns(); j++ {
		colWidths[j] = len(cs.ColLabel(j))
		for i := 0; i < cs.Rows(); i++ {
			if n := len(cs.Cell(i, j).String()); n > colWidths[j] {
				colWidths[j] = n
			}
		}
		if n := len(fmt.Sprintf("%g", colTotals[j])); n > colWidths[j] {
			colWidths[j] = n
		}
	}
	colWidths[cs.Columns()] = len("total")
	for _, rt := range rowTotals {
		if n := len(fmt.Sprintf("%g", rt)); n > colWidths[cs.Columns()] {
			colWidths[cs.Columns()] = n
		}
	}

	fmt.Fprintf(w, "  %-*s", rowHeaderWidth, "")
	for j := 0; j < cs.Columns(); j++ {
		fmt.Fprintf(w, "  %*s", colWidths[j], cs.ColLabel(j))
	}
	fmt.Fprintf(w, "  %*s\n", colWidths[cs.Columns()], "total")
	for i := 0; i < cs.Rows(); i++ {
		fmt.Fprintf(w, "  %-*s", rowHeaderWidth, cs.RowLabel(i))
		for j := 0; j < cs.Columns(); j++ {
			cell := cs.Cell(i, j)
			disp := cell.String()
			if cell.IsNA() {
				disp = "."
			}
			fmt.Fprintf(w, "  %*s", colWidths[j], disp)
		}
		fmt.Fprintf(w, "  %*g\n", colWidths[cs.Columns()], rowTotals[i])
	}
	fmt.Fprintf(w, "  %-*s", rowHeaderWidth, "total")
	for j := 0; j < cs.Columns(); j++ {
		fmt.Fprintf(w, "  %*g", colWidths[j], colTotals[j])
	}
	fmt.Fprintf(w, "  %*g\n", colWidths[cs.Columns()], grand)
	return nil
}
