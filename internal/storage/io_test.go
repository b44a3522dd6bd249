package storage

import (
	"bytes"
	"strings"
	"testing"
	"testing/quick"
	"time"

	"github.com/ddgms/ddgms/internal/value"
)

func TestCSVRoundTrip(t *testing.T) {
	tbl := visitsTable(t)
	tbl.Set(2, "Age", value.NA())
	var buf bytes.Buffer
	if err := tbl.WriteCSV(&buf); err != nil {
		t.Fatalf("WriteCSV: %v", err)
	}
	back, err := ReadCSV(&buf, tbl.Schema())
	if err != nil {
		t.Fatalf("ReadCSV: %v", err)
	}
	if back.Len() != tbl.Len() {
		t.Fatalf("round trip rows = %d, want %d", back.Len(), tbl.Len())
	}
	for i := 0; i < tbl.Len(); i++ {
		a, b := tbl.Row(i), back.Row(i)
		for j := range a {
			if !a[j].Equal(b[j]) {
				t.Errorf("row %d col %d: %v != %v", i, j, a[j], b[j])
			}
		}
	}
}

func TestReadCSVValidation(t *testing.T) {
	schema := MustSchema(Field{"A", value.IntKind}, Field{"B", value.FloatKind})
	cases := []struct {
		name string
		csv  string
	}{
		{"wrong column count", "A\n1\n"},
		{"wrong header name", "A,C\n1,2\n"},
		{"bad value", "A,B\nx,2\n"},
		{"empty input", ""},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			if _, err := ReadCSV(strings.NewReader(c.csv), schema); err == nil {
				t.Error("expected error")
			}
		})
	}
}

func TestInferCSV(t *testing.T) {
	csv := "ID,FBG,Gender,Diabetes,Visit\n" +
		"1,5.4,F,yes,2012-03-01\n" +
		"2,,M,no,2012-03-02\n" +
		"3,7,F,yes,\n"
	tbl, err := InferCSV(strings.NewReader(csv))
	if err != nil {
		t.Fatalf("InferCSV: %v", err)
	}
	wantKinds := map[string]value.Kind{
		"ID": value.IntKind, "FBG": value.FloatKind, "Gender": value.StringKind,
		"Diabetes": value.BoolKind, "Visit": value.TimeKind,
	}
	for name, k := range wantKinds {
		j, ok := tbl.Schema().Lookup(name)
		if !ok {
			t.Fatalf("missing column %q", name)
		}
		if got := tbl.Schema().Field(j).Kind; got != k {
			t.Errorf("column %q kind = %v, want %v", name, got, k)
		}
	}
	// Int+Float mixing widens to float: FBG row 3 "7" parsed as float 7.
	if v := tbl.MustValue(2, "FBG"); v.Float() != 7 {
		t.Errorf("FBG row 3 = %v", v)
	}
	if !tbl.MustValue(1, "FBG").IsNA() || !tbl.MustValue(2, "Visit").IsNA() {
		t.Error("missing cells must be NA")
	}
}

func TestInferCSVMixedFallsBackToString(t *testing.T) {
	csv := "X\n1\nhello\n"
	tbl, err := InferCSV(strings.NewReader(csv))
	if err != nil {
		t.Fatal(err)
	}
	if k := tbl.Schema().Field(0).Kind; k != value.StringKind {
		t.Errorf("mixed column kind = %v, want string", k)
	}
}

func TestInferCSVEmpty(t *testing.T) {
	if _, err := InferCSV(strings.NewReader("")); err == nil {
		t.Error("empty CSV must fail")
	}
	// Header-only: zero rows, all-string schema.
	tbl, err := InferCSV(strings.NewReader("A,B\n"))
	if err != nil {
		t.Fatalf("header-only: %v", err)
	}
	if tbl.Len() != 0 || tbl.Schema().Len() != 2 {
		t.Errorf("header-only shape: %dx%d", tbl.Len(), tbl.Schema().Len())
	}
}

func TestBinaryRoundTrip(t *testing.T) {
	tbl := visitsTable(t)
	tbl.Set(1, "Gender", value.NA())
	tbl.Set(3, "VisitDate", value.NA())
	var buf bytes.Buffer
	if err := tbl.WriteBinary(&buf); err != nil {
		t.Fatalf("WriteBinary: %v", err)
	}
	back, err := ReadBinary(&buf)
	if err != nil {
		t.Fatalf("ReadBinary: %v", err)
	}
	if !back.Schema().Equal(tbl.Schema()) {
		t.Fatal("schema mismatch after round trip")
	}
	for i := 0; i < tbl.Len(); i++ {
		a, b := tbl.Row(i), back.Row(i)
		for j := range a {
			if !a[j].Equal(b[j]) {
				t.Errorf("row %d col %d: %v != %v", i, j, a[j], b[j])
			}
		}
	}
}

// No reader for version-1 snapshots (string columns as raw per-row
// strings) remains: a version-1 header must be refused by version, not
// misread as the dictionary-compressed payload. The bytes are a complete,
// well-formed v1 table — one string column, three rows, middle row NA.
func TestReadBinaryRefusesVersion1(t *testing.T) {
	var buf bytes.Buffer
	buf.WriteString("DDGT")
	buf.WriteByte(1)                      // version
	buf.WriteByte(1)                      // nfields
	buf.WriteByte(4)                      // len("Name")
	buf.WriteString("Name")               //
	buf.WriteByte(byte(value.StringKind)) //
	buf.WriteByte(3)                      // nrows
	buf.WriteByte(0b101)                  // validity: rows 0 and 2
	buf.WriteByte(2)                      // len("hi")
	buf.WriteString("hi")
	buf.WriteByte(2) // len("ho")
	buf.WriteString("ho")
	_, err := ReadBinary(&buf)
	if err == nil || !strings.Contains(err.Error(), "unsupported version 1") {
		t.Fatalf("ReadBinary v1 = %v, want unsupported version 1", err)
	}
}

// A v2 snapshot of a repetitive string column must be smaller than the v1
// raw-per-row form it replaces — the point of dictionary-compressing
// snapshots.
func TestBinaryV2CompressesStrings(t *testing.T) {
	sch, err := NewSchema(Field{Name: "Status", Kind: value.StringKind})
	if err != nil {
		t.Fatal(err)
	}
	tbl := MustTable(sch)
	for i := 0; i < 512; i++ {
		if err := tbl.AppendRow([]value.Value{value.Str("Type2Diabetes")}); err != nil {
			t.Fatal(err)
		}
	}
	var buf bytes.Buffer
	if err := tbl.WriteBinary(&buf); err != nil {
		t.Fatal(err)
	}
	// v1 spent 14 bytes per row on the string alone; v2 stores it once
	// plus a zero-width code stream. Header + bitmap dominate.
	if rawCost := 512 * 14; buf.Len() >= rawCost/3 {
		t.Errorf("v2 snapshot is %d bytes; want < %d (3x under raw v1 string payload)", buf.Len(), rawCost/3)
	}
	back, err := ReadBinary(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if back.Len() != 512 || !back.Row(511)[0].Equal(value.Str("Type2Diabetes")) {
		t.Error("v2 round trip lost data")
	}
}

func TestReadBinaryRejectsGarbage(t *testing.T) {
	if _, err := ReadBinary(bytes.NewReader([]byte("NOPE"))); err == nil {
		t.Error("bad magic must fail")
	}
	if _, err := ReadBinary(bytes.NewReader([]byte("DD"))); err == nil {
		t.Error("truncated magic must fail")
	}
	// Valid magic, bogus version.
	if _, err := ReadBinary(bytes.NewReader([]byte("DDGT\xFF\x01"))); err == nil {
		t.Error("bad version must fail")
	}
}

func TestReadBinaryTruncated(t *testing.T) {
	tbl := visitsTable(t)
	var buf bytes.Buffer
	if err := tbl.WriteBinary(&buf); err != nil {
		t.Fatal(err)
	}
	data := buf.Bytes()
	for _, n := range []int{5, 10, len(data) / 2, len(data) - 1} {
		if _, err := ReadBinary(bytes.NewReader(data[:n])); err == nil {
			t.Errorf("truncation at %d bytes must fail", n)
		}
	}
}

// Property: binary round-trip preserves arbitrary int/float/string rows with
// arbitrary missingness.
func TestQuickBinaryRoundTrip(t *testing.T) {
	schema := MustSchema(
		Field{"I", value.IntKind},
		Field{"F", value.FloatKind},
		Field{"S", value.StringKind},
		Field{"B", value.BoolKind},
	)
	f := func(is []int64, fs []float64, ss []string, nas []bool) bool {
		tbl := MustTable(schema)
		n := len(is)
		for _, other := range []int{len(fs), len(ss), len(nas)} {
			if other < n {
				n = other
			}
		}
		for i := 0; i < n; i++ {
			row := []value.Value{
				value.Int(is[i]), value.Float(fs[i]), value.Str(ss[i]), value.Bool(is[i]%2 == 0),
			}
			if nas[i] {
				row[i%4] = value.NA()
			}
			if err := tbl.AppendRow(row); err != nil {
				return false
			}
		}
		var buf bytes.Buffer
		if err := tbl.WriteBinary(&buf); err != nil {
			return false
		}
		back, err := ReadBinary(&buf)
		if err != nil || back.Len() != tbl.Len() {
			return false
		}
		for i := 0; i < tbl.Len(); i++ {
			a, b := tbl.Row(i), back.Row(i)
			for j := range a {
				if !a[j].Equal(b[j]) {
					return false
				}
			}
		}
		return true
	}
	cfg := &quick.Config{MaxCount: 50}
	if err := quick.Check(f, cfg); err != nil {
		t.Error(err)
	}
}

func TestBinaryTimePrecision(t *testing.T) {
	schema := MustSchema(Field{"T", value.TimeKind})
	tbl := MustTable(schema)
	ts := time.Date(2013, 6, 15, 9, 45, 30, 123456789, time.UTC)
	tbl.AppendRow([]value.Value{value.Time(ts)})
	var buf bytes.Buffer
	if err := tbl.WriteBinary(&buf); err != nil {
		t.Fatal(err)
	}
	back, err := ReadBinary(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if got := back.MustValue(0, "T").Time(); !got.Equal(ts) {
		t.Errorf("time = %v, want %v", got, ts)
	}
}
