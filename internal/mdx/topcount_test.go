package mdx

import (
	"context"
	"testing"
)

func TestTopCount(t *testing.T) {
	ev := testEvaluator(t)
	cs, err := ev.QueryCtx(context.Background(), `SELECT {[Personal].[Gender].MEMBERS} ON COLUMNS,
		TOPCOUNT({[Personal].[AgeBand10].MEMBERS}, 1) ON ROWS
		FROM [MedicalMeasures]`)
	if err != nil {
		t.Fatal(err)
	}
	if cs.Rows() != 1 {
		t.Fatalf("rows = %d, want 1", cs.Rows())
	}
	// 70-80 has 3 visits vs 40-60's 2: it must win.
	if cs.RowLabel(0) != "70-80" {
		t.Errorf("top band = %q", cs.RowLabel(0))
	}
}

func TestTopCountLargerThanAxis(t *testing.T) {
	ev := testEvaluator(t)
	cs, err := ev.QueryCtx(context.Background(), `SELECT TOPCOUNT({[Personal].[AgeBand10].MEMBERS}, 99) ON COLUMNS
		FROM [MedicalMeasures]`)
	if err != nil {
		t.Fatal(err)
	}
	if cs.Columns() != 2 {
		t.Errorf("columns = %d, want all 2", cs.Columns())
	}
	// Ranked descending: 70-80 first.
	if cs.ColLabel(0) != "70-80" {
		t.Errorf("first column = %q", cs.ColLabel(0))
	}
}

func TestTopCountParseErrors(t *testing.T) {
	cases := []string{
		`SELECT TOPCOUNT({[A].[B].MEMBERS}) ON COLUMNS FROM [C]`,    // missing N
		`SELECT TOPCOUNT({[A].[B].MEMBERS}, 0) ON COLUMNS FROM [C]`, // N < 1
		`SELECT TOPCOUNT({[A].[B].MEMBERS}, x) ON COLUMNS FROM [C]`, // not a number
	}
	for _, src := range cases {
		if _, err := Parse(src); err == nil {
			t.Errorf("Parse(%q) should fail", src)
		}
	}
}

func TestMultiMeasureColumns(t *testing.T) {
	ev := testEvaluator(t)
	cs, err := ev.QueryCtx(context.Background(), `SELECT {[Measures].[PatientCount], [Measures].[AvgFBG], [Measures].[Visits]} ON COLUMNS,
		{[Condition].[Diabetes].MEMBERS} ON ROWS
		FROM [MedicalMeasures]`)
	if err != nil {
		t.Fatal(err)
	}
	if cs.Columns() != 3 {
		t.Fatalf("columns = %d, want 3 measures: %v", cs.Columns(), colLabels(cs))
	}
	if cs.ColLabel(0) != "PatientCount" || cs.ColLabel(1) != "AvgFBG" || cs.ColLabel(2) != "Visits" {
		t.Errorf("measure columns = %v", colLabels(cs))
	}
	// Yes row: 2 patients, avg FBG 7.5, 3 visits.
	for i := 0; i < cs.Rows(); i++ {
		if cs.RowLabel(i) != "Yes" {
			continue
		}
		if got := cs.Cell(i, 0).Int(); got != 2 {
			t.Errorf("PatientCount = %d", got)
		}
		want := (7.2 + 7.8 + 7.5) / 3
		if got := cs.Cell(i, 1).Float(); got < want-1e-9 || got > want+1e-9 {
			t.Errorf("AvgFBG = %g", got)
		}
		if got := cs.Cell(i, 2).Int(); got != 3 {
			t.Errorf("Visits = %d", got)
		}
	}
}

func TestMultiMeasureRows(t *testing.T) {
	ev := testEvaluator(t)
	cs, err := ev.QueryCtx(context.Background(), `SELECT {[Personal].[Gender].MEMBERS} ON COLUMNS,
		{[Measures].[PatientCount], [Measures].[Visits]} ON ROWS
		FROM [MedicalMeasures]`)
	if err != nil {
		t.Fatal(err)
	}
	if cs.Rows() != 2 || cs.Columns() != 2 {
		t.Fatalf("shape %dx%d", cs.Rows(), cs.Columns())
	}
	if cs.RowLabel(0) != "PatientCount" || cs.RowLabel(1) != "Visits" {
		t.Errorf("rows = %v, %v", cs.RowLabel(0), cs.RowLabel(1))
	}
}

func TestMultiMeasureErrors(t *testing.T) {
	ev := testEvaluator(t)
	cases := []string{
		// Measures mixed with attributes on one axis.
		`SELECT {[Measures].[PatientCount], [Measures].[Visits], [Personal].[Gender].MEMBERS} ON COLUMNS FROM [MedicalMeasures]`,
		// Measures split across axes.
		`SELECT {[Measures].[PatientCount], [Measures].[Visits]} ON COLUMNS,
		 {[Measures].[AvgFBG], [Measures].[Visits]} ON ROWS FROM [MedicalMeasures]`,
	}
	for _, src := range cases {
		if _, err := ev.QueryCtx(context.Background(), src); err == nil {
			t.Errorf("Query(%q) should fail", src)
		}
	}
}
