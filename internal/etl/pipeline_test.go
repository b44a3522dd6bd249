package etl

import (
	"errors"
	"testing"

	"github.com/ddgms/ddgms/internal/storage"
	"github.com/ddgms/ddgms/internal/value"
)

func visitsTable(t *testing.T) *storage.Table {
	t.Helper()
	tbl := storage.MustTable(storage.MustSchema(
		storage.Field{Name: "PatientID", Kind: value.IntKind},
		storage.Field{Name: "VisitDate", Kind: value.TimeKind},
		storage.Field{Name: "FBG", Kind: value.FloatKind},
	))
	add := func(p int64, d int, fbg float64) {
		row := []value.Value{value.Int(p), value.Time(day(d)), value.Float(fbg)}
		if fbg < 0 {
			row[2] = value.NA()
		}
		if err := tbl.AppendRow(row); err != nil {
			t.Fatal(err)
		}
	}
	add(1, 20, 5.2)
	add(2, 5, 6.3)
	add(1, 10, 5.0)
	add(2, 15, 7.5)
	add(1, 30, -1) // missing FBG
	add(3, 1, 400) // erroneous FBG
	return tbl
}

func TestAssignCardinality(t *testing.T) {
	tbl := visitsTable(t)
	if err := AssignCardinality(tbl, "PatientID", "VisitDate", "VisitNo"); err != nil {
		t.Fatal(err)
	}
	// Patient 1 visits on days 10, 20, 30 → cardinalities 1, 2, 3 in row
	// order 20→2, 10→1, 30→3.
	wantCard := []int64{2, 1, 1, 2, 3, 1}
	for i, w := range wantCard {
		if got := tbl.MustValue(i, "VisitNo"); got.Int() != w {
			t.Errorf("row %d cardinality = %v, want %d", i, got, w)
		}
	}
}

func TestAssignCardinalityErrors(t *testing.T) {
	tbl := visitsTable(t)
	if err := AssignCardinality(tbl, "Nope", "VisitDate", "C"); err == nil {
		t.Error("unknown patient column must fail")
	}
	if err := AssignCardinality(tbl, "PatientID", "Nope", "C"); err == nil {
		t.Error("unknown time column must fail")
	}
	if err := AssignCardinality(tbl, "PatientID", "FBG", "C"); err == nil {
		t.Error("non-time time column must fail")
	}
}

func TestAssignCardinalityMissingKeys(t *testing.T) {
	tbl := storage.MustTable(storage.MustSchema(
		storage.Field{Name: "P", Kind: value.IntKind},
		storage.Field{Name: "D", Kind: value.TimeKind},
	))
	tbl.AppendRow([]value.Value{value.NA(), value.Time(day(1))})
	tbl.AppendRow([]value.Value{value.Int(1), value.NA()})
	tbl.AppendRow([]value.Value{value.Int(1), value.Time(day(2))})
	if err := AssignCardinality(tbl, "P", "D", "C"); err != nil {
		t.Fatal(err)
	}
	if !tbl.MustValue(0, "C").IsNA() || !tbl.MustValue(1, "C").IsNA() {
		t.Error("rows with missing keys must get NA cardinality")
	}
	if tbl.MustValue(2, "C").Int() != 1 {
		t.Errorf("valid row cardinality = %v", tbl.MustValue(2, "C"))
	}
}

func TestPipelineEndToEnd(t *testing.T) {
	tbl := visitsTable(t)
	fbgScheme := MustManualScheme("FBG", []float64{5.5, 6.1, 7},
		[]string{"very good", "high", "preDiabetic", "Diabetic"})
	var p Pipeline
	p.AddRangeRule("FBG", 2, 30).
		AddDiscretize("FBG", "FBGBand", fbgScheme).
		AddCardinality("PatientID", "VisitDate", "VisitNo")

	out, err := p.Run(tbl)
	if err != nil {
		t.Fatal(err)
	}
	// Input untouched: erroneous 400 still present.
	if tbl.MustValue(5, "FBG").Float() != 400 {
		t.Error("pipeline modified its input")
	}
	// The erroneous 400 was nulled, and its band is missing too.
	if v := out.MustValue(5, "FBG"); !v.IsNA() {
		t.Errorf("erroneous value = %v, want NA", v)
	}
	if v := out.MustValue(5, "FBGBand"); !v.IsNA() {
		t.Errorf("band of a nulled value = %v, want NA", v)
	}
	// Discretised companion column exists alongside the original.
	if _, ok := out.Schema().Lookup("FBG"); !ok {
		t.Error("original column missing")
	}
	band := out.MustValue(3, "FBGBand")
	if band.Str() != "Diabetic" {
		t.Errorf("FBG 7.5 band = %v", band)
	}
	// Cardinality column attached.
	if out.MustValue(4, "VisitNo").Int() != 3 {
		t.Errorf("cardinality = %v", out.MustValue(4, "VisitNo"))
	}
	// Step names recorded in order.
	steps := p.Steps()
	if len(steps) != 3 || steps[0] != "range[FBG]" {
		t.Errorf("steps = %v", steps)
	}
}

func TestPipelineErrorPropagation(t *testing.T) {
	tbl := visitsTable(t)
	var p Pipeline
	p.AddRangeRule("Nope", 0, 1)
	if _, err := p.Run(tbl); err == nil {
		t.Error("pipeline must surface step errors")
	}
	var p2 Pipeline
	p2.AddDiscretize("Nope", "X", MustManualScheme("X", []float64{1}, []string{"a", "b"}))
	if _, err := p2.Run(tbl); err == nil {
		t.Error("discretize on unknown column must fail")
	}
}

func TestPipelineDiscretizeNonNumericFails(t *testing.T) {
	tbl := storage.MustTable(storage.MustSchema(storage.Field{Name: "G", Kind: value.StringKind}))
	tbl.AppendRow([]value.Value{value.Str("M")})
	var p Pipeline
	p.AddDiscretize("G", "GB", MustManualScheme("X", []float64{1}, []string{"a", "b"}))
	if _, err := p.Run(tbl); err == nil {
		t.Error("discretising a string column must fail")
	}
}

func TestPipelinePermanentErrorNotRetried(t *testing.T) {
	tbl := visitsTable(t)
	calls := 0
	var p Pipeline
	p.Add(Step{
		Name:   "bad-config",
		Output: storage.Field{Name: "Bad", Kind: value.StringKind},
		Inputs: []string{"FBG"},
		Derive: func(int, []storage.Column, storage.Column) error {
			calls++
			return errors.New("no such column")
		},
	})
	if _, err := p.Run(tbl); err == nil {
		t.Fatal("step error must surface")
	}
	if calls != 1 {
		t.Errorf("calls = %d, want 1 (a failed step is not retried)", calls)
	}
}

// TestRunSharesOnlyUnwrittenColumns pins Run's aliasing rule: the input
// is never modified, a range-ruled column is copied before its first
// write, the columns no step writes are the input's own, and one input
// schema compiles to one plan whose output schema every run shares.
func TestRunSharesOnlyUnwrittenColumns(t *testing.T) {
	in := visitsTable(t)
	before := make([][]value.Value, in.Len())
	for i := range before {
		before[i] = in.Row(i)
	}
	// The FBG rule nulls row 5's 400; the PatientID rule nulls nothing.
	var p Pipeline
	p.AddRangeRule("FBG", 2, 30).
		AddRangeRule("PatientID", 0, 10).
		AddDiscretize("FBG", "FBGBand", MustManualScheme("FBG", []float64{6}, []string{"lo", "hi"})).
		AddCardinality("PatientID", "VisitDate", "VisitNo")
	out, err := p.Run(in)
	if err != nil {
		t.Fatal(err)
	}
	for i, row := range before {
		for j, v := range row {
			if got := in.ColumnAt(j).Value(i); !got.Equal(v) && !(got.IsNA() && v.IsNA()) {
				t.Errorf("input row %d column %d = %v after Run, want %v", i, j, got, v)
			}
		}
	}
	if !out.MustValue(5, "FBG").IsNA() || !out.MustValue(5, "FBGBand").IsNA() {
		t.Errorf("ruled row 5: FBG %v, band %v; want NA, NA", out.MustValue(5, "FBG"), out.MustValue(5, "FBGBand"))
	}

	col := func(tbl *storage.Table, name string) storage.Column {
		c, err := tbl.Column(name)
		if err != nil {
			t.Fatal(err)
		}
		return c
	}
	for _, name := range []string{"PatientID", "VisitDate"} {
		if col(out, name) != col(in, name) {
			t.Errorf("column %s, which no step writes, was copied", name)
		}
	}
	if col(out, "FBG") == col(in, "FBG") {
		t.Fatal("the range-ruled FBG column is shared with the input")
	}
	// The written column is the output's own: writing it leaves the input
	// alone.
	if err := out.Set(0, "FBG", value.Float(-1)); err != nil {
		t.Fatal(err)
	}
	if got := in.MustValue(0, "FBG"); got.Float() != 5.2 {
		t.Errorf("input FBG row 0 = %v after writing the output's, want 5.2", got)
	}

	// Tables of one schema share one plan, and so one output schema.
	same := storage.MustTable(in.Schema())
	for _, row := range before {
		if err := same.AppendRow(row); err != nil {
			t.Fatal(err)
		}
	}
	again, err := p.Run(same)
	if err != nil {
		t.Fatal(err)
	}
	if again.Schema() != out.Schema() {
		t.Error("a second table of the same schema was planned again")
	}
}
