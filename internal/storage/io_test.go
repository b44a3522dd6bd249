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
	// One header row, one line per row, NA as the empty field.
	want := "PatientID,Gender,Age,Diabetes,VisitDate\n" +
		"1,M,72,true,2012-01-01T00:00:00Z\n" +
		"1,M,73,true,2012-01-05T00:00:00Z\n" +
		"2,F,,true,2012-01-02T00:00:00Z\n" +
		"3,F,45,false,2012-01-03T00:00:00Z\n" +
		"4,M,45,false,2012-01-04T00:00:00Z\n" +
		"5,F,77,true,2012-01-06T00:00:00Z\n"
	if got := buf.String(); got != want {
		t.Errorf("WriteCSV =\n%s\nwant\n%s", got, want)
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
