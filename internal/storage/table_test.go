package storage

import (
	"testing"
	"time"

	"github.com/ddgms/ddgms/internal/value"
)

func patientSchema(t *testing.T) *Schema {
	t.Helper()
	s, err := NewSchema(
		Field{"PatientID", value.IntKind},
		Field{"Gender", value.StringKind},
		Field{"Age", value.FloatKind},
		Field{"Diabetes", value.BoolKind},
		Field{"VisitDate", value.TimeKind},
	)
	if err != nil {
		t.Fatalf("NewSchema: %v", err)
	}
	return s
}

func patientRow(id int64, gender string, age float64, diab bool, day int) []value.Value {
	return []value.Value{
		value.Int(id), value.Str(gender), value.Float(age), value.Bool(diab),
		value.Time(time.Date(2012, 1, day, 0, 0, 0, 0, time.UTC)),
	}
}

func TestNewSchemaRejectsDuplicates(t *testing.T) {
	if _, err := NewSchema(Field{"A", value.IntKind}, Field{"A", value.FloatKind}); err == nil {
		t.Error("duplicate field name must be rejected")
	}
	if _, err := NewSchema(Field{"", value.IntKind}); err == nil {
		t.Error("empty field name must be rejected")
	}
}

func TestSchemaLookupAndSelect(t *testing.T) {
	s := patientSchema(t)
	if i, ok := s.Lookup("Age"); !ok || i != 2 {
		t.Errorf("Lookup(Age) = %d,%v", i, ok)
	}
	if _, ok := s.Lookup("Nope"); ok {
		t.Error("Lookup(Nope) should fail")
	}
	sub, err := s.Select("Gender", "PatientID")
	if err != nil {
		t.Fatalf("Select: %v", err)
	}
	if sub.Len() != 2 || sub.Field(0).Name != "Gender" || sub.Field(1).Name != "PatientID" {
		t.Errorf("Select order wrong: %v", sub.Names())
	}
	if _, err := s.Select("Missing"); err == nil {
		t.Error("Select of unknown field should fail")
	}
}

func TestAppendRowAndReadBack(t *testing.T) {
	tbl := MustTable(patientSchema(t))
	rows := [][]value.Value{
		patientRow(1, "M", 64, true, 1),
		patientRow(2, "F", 71.5, false, 2),
		{value.Int(3), value.NA(), value.NA(), value.NA(), value.NA()},
	}
	for _, r := range rows {
		if err := tbl.AppendRow(r); err != nil {
			t.Fatalf("AppendRow: %v", err)
		}
	}
	if tbl.Len() != 3 {
		t.Fatalf("Len = %d", tbl.Len())
	}
	for i, want := range rows {
		got := tbl.Row(i)
		for j := range want {
			if !got[j].Equal(want[j]) {
				t.Errorf("row %d col %d = %v, want %v", i, j, got[j], want[j])
			}
		}
	}
	if v := tbl.MustValue(1, "Gender"); v.Str() != "F" {
		t.Errorf("MustValue = %v", v)
	}
}

func TestAppendRowValidation(t *testing.T) {
	tbl := MustTable(patientSchema(t))
	if err := tbl.AppendRow([]value.Value{value.Int(1)}); err == nil {
		t.Error("short row must be rejected")
	}
	bad := patientRow(1, "M", 64, true, 1)
	bad[2] = value.Str("old") // wrong kind for Age
	if err := tbl.AppendRow(bad); err == nil {
		t.Error("kind mismatch must be rejected")
	}
	if tbl.Len() != 0 {
		t.Errorf("failed appends must not change length, got %d", tbl.Len())
	}
}

func TestSetAndNullBitmap(t *testing.T) {
	tbl := MustTable(patientSchema(t))
	if err := tbl.AppendRow(patientRow(1, "M", 64, true, 1)); err != nil {
		t.Fatal(err)
	}
	if err := tbl.Set(0, "Age", value.NA()); err != nil {
		t.Fatalf("Set NA: %v", err)
	}
	if v := tbl.MustValue(0, "Age"); !v.IsNA() {
		t.Errorf("after Set NA, got %v", v)
	}
	if err := tbl.Set(0, "Age", value.Float(65)); err != nil {
		t.Fatalf("Set: %v", err)
	}
	if v := tbl.MustValue(0, "Age"); v.Float() != 65 {
		t.Errorf("after Set, got %v", v)
	}
	if err := tbl.Set(0, "Age", value.Str("x")); err == nil {
		t.Error("Set with wrong kind must fail")
	}
	if err := tbl.Set(0, "Nope", value.NA()); err == nil {
		t.Error("Set on unknown column must fail")
	}
}

func TestNullBitmapAcrossWordBoundaries(t *testing.T) {
	// Exercise >64 rows so the bitmap spans multiple words.
	schema := MustSchema(Field{"X", value.IntKind})
	tbl := MustTable(schema)
	for i := 0; i < 200; i++ {
		v := value.Int(int64(i))
		if i%3 == 0 {
			v = value.NA()
		}
		if err := tbl.AppendRow([]value.Value{v}); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < 200; i++ {
		v := tbl.MustValue(i, "X")
		if i%3 == 0 {
			if !v.IsNA() {
				t.Fatalf("row %d should be NA, got %v", i, v)
			}
		} else if v.Int() != int64(i) {
			t.Fatalf("row %d = %v", i, v)
		}
	}
}

func TestStringDictionaryEncoding(t *testing.T) {
	schema := MustSchema(Field{"G", value.StringKind})
	tbl := MustTable(schema)
	for i := 0; i < 1000; i++ {
		g := "M"
		if i%2 == 0 {
			g = "F"
		}
		if err := tbl.AppendRow([]value.Value{value.Str(g)}); err != nil {
			t.Fatal(err)
		}
	}
	if n := len(tbl.ColumnAt(0).(*stringColumn).dict); n != 2 {
		t.Errorf("dictionary size = %d, want 2", n)
	}
}

func TestAddColumnAndClone(t *testing.T) {
	tbl := MustTable(patientSchema(t))
	tbl.AppendRow(patientRow(1, "M", 64, true, 1))
	tbl.AppendRow(patientRow(2, "F", 40, false, 2))
	err := tbl.AddColumn(Field{"AgeBand", value.StringKind}, func(i int) value.Value {
		if tbl.MustValue(i, "Age").Float() >= 60 {
			return value.Str("60-80")
		}
		return value.Str("40-60")
	})
	if err != nil {
		t.Fatalf("AddColumn: %v", err)
	}
	if v := tbl.MustValue(0, "AgeBand"); v.Str() != "60-80" {
		t.Errorf("AgeBand = %v", v)
	}
	if err := tbl.AddColumn(Field{"AgeBand", value.StringKind}, nil); err == nil {
		t.Error("duplicate AddColumn must fail")
	}
	cl := tbl.Clone()
	cl.Set(0, "Gender", value.Str("F"))
	if tbl.MustValue(0, "Gender").Str() != "M" {
		t.Error("Clone must be independent")
	}
}
