package etl

import (
	"testing"

	"github.com/ddgms/ddgms/internal/storage"
	"github.com/ddgms/ddgms/internal/value"
)

func cleanTable(t *testing.T) *storage.Table {
	t.Helper()
	tbl := storage.MustTable(storage.MustSchema(
		storage.Field{Name: "FBG", Kind: value.FloatKind},
		storage.Field{Name: "Gender", Kind: value.StringKind},
		storage.Field{Name: "Visits", Kind: value.IntKind},
	))
	rows := [][]value.Value{
		{value.Float(5.0), value.Str("F"), value.Int(1)},
		{value.Float(6.0), value.Str("M"), value.NA()},
		{value.NA(), value.Str("F"), value.Int(3)},
		{value.Float(7.0), value.NA(), value.Int(4)},
	}
	for _, r := range rows {
		if err := tbl.AppendRow(r); err != nil {
			t.Fatal(err)
		}
	}
	return tbl
}

func TestApplyRangeRule(t *testing.T) {
	tbl := storage.MustTable(storage.MustSchema(storage.Field{Name: "SBP", Kind: value.FloatKind}))
	for _, v := range []float64{120, 135, -5, 400, 90} {
		tbl.AppendRow([]value.Value{value.Float(v)})
	}
	rep, err := ApplyRangeRule(tbl, RangeRule{Column: "SBP", Min: 50, Max: 260})
	if err != nil {
		t.Fatal(err)
	}
	if rep.Affected != 2 {
		t.Errorf("affected = %d", rep.Affected)
	}
	if !tbl.MustValue(2, "SBP").IsNA() || !tbl.MustValue(3, "SBP").IsNA() {
		t.Error("out-of-range values must become NA")
	}
	if tbl.MustValue(0, "SBP").Float() != 120 {
		t.Error("in-range value was modified")
	}
	if _, err := ApplyRangeRule(tbl, RangeRule{Column: "Nope"}); err == nil {
		t.Error("unknown column must fail")
	}
}
