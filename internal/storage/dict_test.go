package storage

import (
	"testing"

	"github.com/ddgms/ddgms/internal/exec"
	"github.com/ddgms/ddgms/internal/value"
)

func TestDictRoundTripAllKinds(t *testing.T) {
	tbl := MustTable(MustSchema(
		Field{Name: "S", Kind: value.StringKind},
		Field{Name: "I", Kind: value.IntKind},
		Field{Name: "F", Kind: value.FloatKind},
		Field{Name: "B", Kind: value.BoolKind},
	))
	rows := [][]value.Value{
		{value.Str("x"), value.Int(1), value.Float(0.5), value.Bool(true)},
		{value.NA(), value.NA(), value.NA(), value.NA()},
		{value.Str("y"), value.Int(2), value.Float(1.5), value.Bool(false)},
		{value.Str("x"), value.Int(1), value.Float(0.5), value.Bool(true)},
	}
	for _, r := range rows {
		if err := tbl.AppendRow(r); err != nil {
			t.Fatal(err)
		}
	}
	for j, name := range []string{"S", "I", "F", "B"} {
		dict, err := tbl.Dict(name)
		if err != nil {
			t.Fatal(err)
		}
		if dict.Len() != tbl.Len() {
			t.Fatalf("%s: dict len %d, want %d", name, dict.Len(), tbl.Len())
		}
		if !dict.Values()[exec.NACode].IsNA() {
			t.Fatalf("%s: code 0 decodes to %v, want NA", name, dict.Values()[0])
		}
		for i := range rows {
			if !dict.Value(i).Equal(rows[i][j]) {
				t.Errorf("%s row %d: decoded %v, want %v", name, i, dict.Value(i), rows[i][j])
			}
		}
		// Rows 0 and 3 hold equal values, so they must share a code.
		if dict.Codes()[0] != dict.Codes()[3] {
			t.Errorf("%s: equal values got codes %d and %d", name, dict.Codes()[0], dict.Codes()[3])
		}
		if dict.Codes()[1] != exec.NACode {
			t.Errorf("%s: NA row coded %d, want %d", name, dict.Codes()[1], exec.NACode)
		}
	}
}

func TestDictCachedAndInvalidated(t *testing.T) {
	tbl := MustTable(MustSchema(Field{Name: "S", Kind: value.StringKind}))
	for _, s := range []string{"a", "b", "a"} {
		if err := tbl.AppendRow([]value.Value{value.Str(s)}); err != nil {
			t.Fatal(err)
		}
	}
	col := tbl.ColumnAt(0)
	d1 := col.Dict()
	if d2 := col.Dict(); d2 != d1 {
		t.Fatal("second Dict call did not return the cached snapshot")
	}

	// Append invalidates; the old snapshot stays usable and unchanged.
	if err := col.Append(value.Str("c")); err != nil {
		t.Fatal(err)
	}
	if d1.Len() != 3 {
		t.Fatalf("old snapshot mutated: len %d", d1.Len())
	}
	d3 := col.Dict()
	if d3 == d1 {
		t.Fatal("Append did not invalidate the dictionary cache")
	}
	if d3.Len() != 4 || !d3.Value(3).Equal(value.Str("c")) {
		t.Fatalf("rebuilt dict wrong: len %d last %v", d3.Len(), d3.Value(3))
	}

	// Set invalidates too.
	if err := col.Set(0, value.NA()); err != nil {
		t.Fatal(err)
	}
	d4 := col.Dict()
	if d4 == d3 {
		t.Fatal("Set did not invalidate the dictionary cache")
	}
	if d4.Codes()[0] != exec.NACode {
		t.Fatalf("row 0 coded %d after Set(NA), want %d", d4.Codes()[0], exec.NACode)
	}
}
