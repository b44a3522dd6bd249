package storage

import (
	"slices"
	"sync"
	"testing"
	"time"

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

// allKindsTable holds one column of every kind, with NA cells and
// repeated values, so clones and dictionaries see each layout.
func allKindsTable(t *testing.T) (*Table, [][]value.Value) {
	t.Helper()
	day := func(d int) value.Value { return value.Time(time.Date(2010, 1, d, 0, 0, 0, 0, time.UTC)) }
	rows := [][]value.Value{
		{value.Int(1), value.Bool(true), day(1), value.Float(0.5), value.Str("x")},
		{value.NA(), value.NA(), value.NA(), value.NA(), value.NA()},
		{value.Int(2), value.Bool(false), day(2), value.Float(1.5), value.Str("y")},
		{value.Int(1), value.Bool(true), day(1), value.Float(0.5), value.Str("x")},
	}
	tbl, err := FromRows(MustSchema(
		Field{Name: "I", Kind: value.IntKind},
		Field{Name: "B", Kind: value.BoolKind},
		Field{Name: "T", Kind: value.TimeKind},
		Field{Name: "F", Kind: value.FloatKind},
		Field{Name: "S", Kind: value.StringKind},
	), rows)
	if err != nil {
		t.Fatal(err)
	}
	return tbl, rows
}

// sameRows fails unless got holds exactly want's rows, read both directly
// and through each column's dictionary.
func sameRows(t *testing.T, label string, got *Table, want [][]value.Value) {
	t.Helper()
	if got.Len() != len(want) {
		t.Fatalf("%s: %d rows, want %d", label, got.Len(), len(want))
	}
	for j := 0; j < got.Schema().Len(); j++ {
		col, dict := got.ColumnAt(j), got.ColumnAt(j).Dict()
		for i, row := range want {
			for _, g := range []value.Value{col.Value(i), dict.Value(i)} {
				if !g.Equal(row[j]) || g.IsNA() != row[j].IsNA() {
					t.Errorf("%s %s row %d: %v, want %v", label, got.Schema().Field(j).Name, i, g, row[j])
				}
			}
		}
	}
}

// dictCodes copies every column's dictionary codes.
func dictCodes(tbl *Table) [][]uint32 {
	out := make([][]uint32, tbl.Schema().Len())
	for j := range out {
		out[j] = slices.Clone(tbl.ColumnAt(j).Dict().Codes())
	}
	return out
}

func TestCloneIndependentAllKinds(t *testing.T) {
	newRow := []value.Value{value.Int(9), value.Bool(false), value.Time(time.Date(2020, 5, 5, 0, 0, 0, 0, time.UTC)),
		value.Float(9.5), value.Str("new")}
	mutate := func(t *testing.T, tbl *Table) {
		t.Helper()
		for j := 0; j < tbl.Schema().Len(); j++ {
			name := tbl.Schema().Field(j).Name
			// Row 1 was all NA and takes row 0's values; row 0 takes the
			// new ones, the new string included, which is in neither
			// dictionary yet. Sets come first, while the two sides'
			// slices could still share backing arrays.
			if err := tbl.Set(1, name, tbl.ColumnAt(j).Value(0)); err != nil {
				t.Fatal(err)
			}
			if err := tbl.Set(0, name, newRow[j]); err != nil {
				t.Fatal(err)
			}
		}
		if err := tbl.AppendRow(newRow); err != nil {
			t.Fatal(err)
		}
	}
	mutated := func(rows [][]value.Value) [][]value.Value {
		return [][]value.Value{newRow, rows[0], rows[2], rows[3], newRow}
	}

	// Each direction mutates one side and checks the other kept its rows
	// and its dictionary codes, and can then take the new string itself.
	check := func(t *testing.T, mutatedSide, other *Table, rows [][]value.Value, codes [][]uint32) {
		t.Helper()
		mutate(t, mutatedSide)
		sameRows(t, "unmutated side", other, rows)
		if got := dictCodes(other); !slices.EqualFunc(got, codes, slices.Equal) {
			t.Errorf("unmutated side's codes %v, want %v", got, codes)
		}
		sameRows(t, "mutated side", mutatedSide, mutated(rows))
		if err := other.AppendRow(newRow); err != nil {
			t.Fatal(err)
		}
		sameRows(t, "unmutated side after its own append", other, append(rows, newRow))
	}
	t.Run("clone", func(t *testing.T) {
		src, rows := allKindsTable(t)
		codes := dictCodes(src) // the source's views are cached
		c := src.Clone()
		for j := 0; j < c.Schema().Len(); j++ {
			before := metricColumnBytes.Value()
			if c.ColumnAt(j).Dict() == src.ColumnAt(j).Dict() {
				t.Fatalf("column %d: the clone shares the source's cached view", j)
			}
			if grew := metricColumnBytes.Value() - before; grew != float64(4*c.Len()) {
				t.Fatalf("column %d: the clone's first Dict added %v gauge bytes, want %d", j, grew, 4*c.Len())
			}
		}
		check(t, c, src, rows, codes)
	})
	t.Run("source", func(t *testing.T) {
		src, rows := allKindsTable(t)
		codes := dictCodes(src)
		check(t, src, src.Clone(), rows, codes)
	})
}

func TestDictInvalidationRestoresGauge(t *testing.T) {
	tbl, _ := allKindsTable(t)
	for j := 0; j < tbl.Schema().Len(); j++ {
		col := tbl.ColumnAt(j)
		before := metricColumnBytes.Value()
		d := col.Dict()
		if got := metricColumnBytes.Value() - before; got != float64(4*col.Len()) {
			t.Fatalf("column %d: Dict added %v gauge bytes, want %d", j, got, 4*col.Len())
		}
		v := col.Value(0)
		if err := col.Append(v); err != nil {
			t.Fatal(err)
		}
		if got := metricColumnBytes.Value(); got != before {
			t.Fatalf("column %d: gauge %v after Append, want %v", j, got, before)
		}
		d2 := col.Dict()
		if d2 == d || d2.Len() != col.Len() || !d2.Value(col.Len()-1).Equal(v) {
			t.Fatalf("column %d: Dict after Append does not see the new row", j)
		}
		if err := col.Set(0, value.NA()); err != nil {
			t.Fatal(err)
		}
		if got := metricColumnBytes.Value(); got != before {
			t.Fatalf("column %d: gauge %v after Set, want %v", j, got, before)
		}
		if code := col.Dict().Codes()[0]; code != exec.NACode {
			t.Fatalf("column %d: row 0 coded %d after Set(NA), want %d", j, code, exec.NACode)
		}
		if err := col.Set(0, v); err != nil { // drops the last view
			t.Fatal(err)
		}
		if got := metricColumnBytes.Value(); got != before {
			t.Fatalf("column %d: gauge %v at the end, want %v", j, got, before)
		}
	}
}

// TestDictConcurrentReadersThenWriter is for the race detector: readers
// race to build and share one cached view, and a single writer mutates
// only after they are done, as the column contract requires.
func TestDictConcurrentReadersThenWriter(t *testing.T) {
	tbl, _ := allKindsTable(t)
	const readers = 8
	views := make([][]*exec.CodedColumn, readers)
	var wg sync.WaitGroup
	for r := range views {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for j := 0; j < tbl.Schema().Len(); j++ {
				views[r] = append(views[r], tbl.ColumnAt(j).Dict())
			}
		}()
	}
	wg.Wait()
	for r := 1; r < readers; r++ {
		for j, v := range views[r] {
			if v != views[0][j] {
				t.Fatalf("reader %d column %d got a different view", r, j)
			}
		}
	}
	for j := 0; j < tbl.Schema().Len(); j++ {
		col := tbl.ColumnAt(j)
		if err := col.Append(value.NA()); err != nil {
			t.Fatal(err)
		}
		if d := col.Dict(); d.Len() != col.Len() || d.Codes()[col.Len()-1] != exec.NACode {
			t.Fatalf("column %d: view after the writer does not see its row", j)
		}
		if views[0][j].Len() != col.Len()-1 {
			t.Fatalf("column %d: a reader's view changed under the writer", j)
		}
	}
}
