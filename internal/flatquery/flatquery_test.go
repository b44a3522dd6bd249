package flatquery

import (
	"context"
	"testing"

	"github.com/ddgms/ddgms/internal/storage"
	"github.com/ddgms/ddgms/internal/value"
)

// cell returns the aggregate for one coordinate (row values then column
// values, in the query's order); ok reports whether the group exists.
func cell(r *Result, coord []value.Value) (v value.Value, ok bool) {
	n := r.Grouped.Schema().Len() - 1 // group columns precede the agg column
	if len(coord) != n {
		return value.NA(), false
	}
	for i := 0; i < r.Grouped.Len(); i++ {
		match := true
		for j := 0; j < n && match; j++ {
			match = r.Grouped.ColumnAt(j).Value(i).Equal(coord[j])
		}
		if match {
			return r.Grouped.MustValue(i, r.AggName), true
		}
	}
	return value.NA(), false
}

// total sums the aggregate column.
func total(r *Result) float64 {
	var sum float64
	for i := 0; i < r.Grouped.Len(); i++ {
		if f, ok := r.Grouped.MustValue(i, r.AggName).AsFloat(); ok {
			sum += f
		}
	}
	return sum
}

func flatTable(t *testing.T) *storage.Table {
	t.Helper()
	tbl := storage.MustTable(storage.MustSchema(
		storage.Field{Name: "Gender", Kind: value.StringKind},
		storage.Field{Name: "Band", Kind: value.StringKind},
		storage.Field{Name: "Diabetes", Kind: value.StringKind},
		storage.Field{Name: "FBG", Kind: value.FloatKind},
	))
	add := func(g, b, d string, fbg float64) {
		row := []value.Value{value.Str(g), value.Str(b), value.Str(d), value.Float(fbg)}
		if g == "" {
			row[0] = value.NA()
		}
		if err := tbl.AppendRow(row); err != nil {
			t.Fatal(err)
		}
	}
	add("M", "70-80", "Yes", 7.2)
	add("M", "70-80", "Yes", 7.8)
	add("F", "70-80", "Yes", 7.5)
	add("F", "40-60", "No", 5.1)
	add("", "40-60", "No", 5.4) // NA gender dropped from gender groupings
	return tbl
}

func TestExecuteCount(t *testing.T) {
	r, err := ExecuteCtx(context.Background(), flatTable(t), Query{
		Rows: []string{"Band"},
		Cols: []string{"Gender"},
		Agg:  storage.CountAgg,
	})
	if err != nil {
		t.Fatal(err)
	}
	if v, ok := cell(r, []value.Value{value.Str("70-80"), value.Str("M")}); !ok || v.Int() != 2 {
		t.Errorf("70-80/M = %v, %v", v, ok)
	}
	if v, ok := cell(r, []value.Value{value.Str("40-60"), value.Str("F")}); !ok || v.Int() != 1 {
		t.Errorf("40-60/F = %v, %v", v, ok)
	}
	// NA-gender row excluded.
	if total(r) != 4 {
		t.Errorf("total = %g, want 4", total(r))
	}
}

func TestExecuteFilteredAvg(t *testing.T) {
	r, err := ExecuteCtx(context.Background(), flatTable(t), Query{
		Rows:    []string{"Gender"},
		Filters: []Filter{{Column: "Diabetes", Values: []value.Value{value.Str("Yes")}}},
		Agg:     storage.AvgAgg,
		Measure: "FBG",
	})
	if err != nil {
		t.Fatal(err)
	}
	v, ok := cell(r, []value.Value{value.Str("M")})
	if !ok {
		t.Fatal("missing M cell")
	}
	want := (7.2 + 7.8) / 2
	if got := v.Float(); got != want {
		t.Errorf("avg = %g, want %g", got, want)
	}
	// Coordinates that were filtered out are absent.
	if _, ok := cell(r, []value.Value{value.Str("X")}); ok {
		t.Error("phantom cell")
	}
	if _, ok := cell(r, []value.Value{value.Str("M"), value.Str("extra")}); ok {
		t.Error("wrong-arity coordinate must miss")
	}
}

func TestExecuteErrors(t *testing.T) {
	tbl := flatTable(t)
	cases := []Query{
		{Rows: []string{"Nope"}, Agg: storage.CountAgg},
		{Rows: []string{"Gender"}, Filters: []Filter{{Column: "Nope", Values: []value.Value{value.Str("x")}}}, Agg: storage.CountAgg},
		{Rows: []string{"Gender"}, Filters: []Filter{{Column: "Diabetes"}}, Agg: storage.CountAgg},
		{Rows: []string{"Gender"}, Agg: storage.SumAgg}, // sum without measure
	}
	for i, q := range cases {
		if _, err := ExecuteCtx(context.Background(), tbl, q); err == nil {
			t.Errorf("case %d: expected error", i)
		}
	}
}

func TestMultiValueFilter(t *testing.T) {
	r, err := ExecuteCtx(context.Background(), flatTable(t), Query{
		Rows:    []string{"Diabetes"},
		Filters: []Filter{{Column: "Gender", Values: []value.Value{value.Str("M"), value.Str("F")}}},
		Agg:     storage.CountAgg,
	})
	if err != nil {
		t.Fatal(err)
	}
	if total(r) != 4 {
		t.Errorf("total = %g", total(r))
	}
}
