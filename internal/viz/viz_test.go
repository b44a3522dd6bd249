package viz

import (
	"strings"
	"testing"

	"github.com/ddgms/ddgms/internal/cube"
	"github.com/ddgms/ddgms/internal/value"
)

func TestBarChart(t *testing.T) {
	var sb strings.Builder
	err := BarChart(&sb, "Patients by gender", []string{"F", "M"}, []float64{10, 40})
	if err != nil {
		t.Fatal(err)
	}
	out := sb.String()
	if !strings.Contains(out, "Patients by gender") {
		t.Error("missing title")
	}
	// M has 4x the value: its bar must be the full width, F's a quarter.
	lines := strings.Split(strings.TrimRight(out, "\n"), "\n")
	if len(lines) != 3 {
		t.Fatalf("lines = %d", len(lines))
	}
	fBars := strings.Count(lines[1], "█")
	mBars := strings.Count(lines[2], "█")
	if mBars != 40 || fBars != 10 {
		t.Errorf("bars F=%d M=%d", fBars, mBars)
	}
}

func TestBarChartEdgeCases(t *testing.T) {
	var sb strings.Builder
	if err := BarChart(&sb, "", []string{"a"}, []float64{1, 2}); err == nil {
		t.Error("length mismatch must fail")
	}
	if err := BarChart(&sb, "", []string{"a"}, []float64{-1}); err == nil {
		t.Error("negative value must fail")
	}
	// All-zero values draw empty bars without dividing by zero.
	sb.Reset()
	if err := BarChart(&sb, "", []string{"a", "b"}, []float64{0, 0}); err != nil {
		t.Fatal(err)
	}
	if strings.Count(sb.String(), "█") != 0 {
		t.Error("zero values must draw no bars")
	}
	// Tiny non-zero values still draw at least one glyph.
	sb.Reset()
	if err := BarChart(&sb, "", []string{"a", "b"}, []float64{0.001, 100}); err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimRight(sb.String(), "\n"), "\n")
	if strings.Count(lines[0], "█") != 1 {
		t.Error("non-zero value rendered empty")
	}
}

func smallCellSet() *cube.CellSet {
	return &cube.CellSet{
		RowHeaders: [][]value.Value{{value.Str("70-75")}, {value.Str("75-80")}},
		ColHeaders: [][]value.Value{{value.Str("F")}, {value.Str("M")}},
		Cells: [][]value.Value{
			{value.Int(4), value.Int(9)},
			{value.Int(7), value.NA()},
		},
	}
}

func TestGroupedBarChart(t *testing.T) {
	var sb strings.Builder
	if err := GroupedBarChart(&sb, "Diabetes by age and gender", smallCellSet()); err != nil {
		t.Fatal(err)
	}
	out := sb.String()
	for _, want := range []string{"70-75", "75-80", "F", "M", "9", "NA"} {
		if !strings.Contains(out, want) {
			t.Errorf("missing %q in output:\n%s", want, out)
		}
	}
}

func TestCrossTab(t *testing.T) {
	var sb strings.Builder
	if err := CrossTab(&sb, "tab", smallCellSet()); err != nil {
		t.Fatal(err)
	}
	out := sb.String()
	lines := strings.Split(strings.TrimRight(out, "\n"), "\n")
	if len(lines) != 4 { // title + header + 2 rows
		t.Fatalf("lines = %d:\n%s", len(lines), out)
	}
	if !strings.Contains(lines[1], "F") || !strings.Contains(lines[1], "M") {
		t.Errorf("header = %q", lines[1])
	}
	// NA cells render as ".".
	if !strings.Contains(lines[3], ".") {
		t.Errorf("NA cell not rendered as '.': %q", lines[3])
	}
}

func TestCrossTabWithTotals(t *testing.T) {
	var sb strings.Builder
	if err := CrossTabWithTotals(&sb, "margins", smallCellSet()); err != nil {
		t.Fatal(err)
	}
	out := sb.String()
	lines := strings.Split(strings.TrimRight(out, "\n"), "\n")
	if len(lines) != 5 { // title + header + 2 rows + totals
		t.Fatalf("lines = %d:\n%s", len(lines), out)
	}
	// Row totals: 4+9=13 and 7+NA=7; column totals 11 and 9; grand 20.
	if !strings.Contains(lines[2], "13") {
		t.Errorf("row 0 total missing: %q", lines[2])
	}
	if !strings.Contains(lines[3], "7") {
		t.Errorf("row 1 total missing: %q", lines[3])
	}
	last := lines[4]
	for _, want := range []string{"total", "11", "9", "20"} {
		if !strings.Contains(last, want) {
			t.Errorf("totals row missing %q: %q", want, last)
		}
	}
}
