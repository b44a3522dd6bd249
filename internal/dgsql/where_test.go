package dgsql

import (
	"fmt"
	"math"
	"testing"
	"time"

	"github.com/ddgms/ddgms/internal/storage"
	"github.com/ddgms/ddgms/internal/value"
)

// whereTable holds one column of each kind, every one with NA rows; the
// float column also holds NaN, +0 and -0. It spans three selection words,
// the last one partial.
func whereTable(t *testing.T) *storage.Table {
	t.Helper()
	tbl := storage.MustTable(storage.MustSchema(
		storage.Field{Name: "I", Kind: value.IntKind},
		storage.Field{Name: "F", Kind: value.FloatKind},
		storage.Field{Name: "S", Kind: value.StringKind},
		storage.Field{Name: "T", Kind: value.TimeKind},
		storage.Field{Name: "B", Kind: value.BoolKind},
	))
	t0 := time.Date(2012, 3, 1, 0, 0, 0, 0, time.UTC)
	floats := []float64{0, math.Copysign(0, -1), math.NaN(), 2.5, -1, 7, 3}
	for i := 0; i < 150; i++ {
		row := []value.Value{
			value.Int(int64(i%7 - 2)),
			value.Float(floats[i%len(floats)]),
			value.Str(fmt.Sprintf("s%d", i%4)),
			value.Time(t0.AddDate(0, 0, i%5)),
			value.Bool(i%3 == 0),
		}
		for j := range row {
			if (i+j)%11 == 0 {
				row[j] = value.NA()
			}
		}
		if err := tbl.AppendRow(row); err != nil {
			t.Fatal(err)
		}
	}
	return tbl
}

// TestWhereSelectionMatchesPerRow compiles every operator against every
// column with literals of every kind — ones the column holds, ones no
// dictionary holds, NaN and ±0 among them — plus = NULL and != NULL, and
// requires exactly the rows that evaluating the condition on each row's
// own value selects.
func TestWhereSelectionMatchesPerRow(t *testing.T) {
	tbl := whereTable(t)
	t0 := time.Date(2012, 3, 1, 0, 0, 0, 0, time.UTC)
	literals := []value.Value{
		value.Int(0), value.Int(2), value.Int(99),
		value.Float(0), value.Float(math.Copysign(0, -1)), value.Float(2.5), value.Float(math.NaN()), value.Float(-1e9),
		value.Str("s1"), value.Str("absent"),
		value.Bool(true), value.Bool(false),
		value.Time(t0.AddDate(0, 0, 2)), value.Time(t0.AddDate(1, 0, 0)),
	}
	var conds []Cond
	for _, col := range []string{"I", "F", "S", "T", "B"} {
		for _, op := range []string{"=", "!=", "<", "<=", ">", ">="} {
			for _, lit := range literals {
				conds = append(conds, Cond{Column: col, Op: op, Literal: lit})
			}
		}
		conds = append(conds, Cond{Column: col, Op: "=", IsNull: true}, Cond{Column: col, Op: "!=", IsNull: true})
	}
	check := func(where []Cond) {
		t.Helper()
		rows, err := whereRows(tbl, where)
		if err != nil {
			t.Fatal(err)
		}
		if len(rows) != (tbl.Len()+63)/64 {
			t.Fatalf("%v: %d words for %d rows", where, len(rows), tbl.Len())
		}
		for i := 0; i < len(rows)*64; i++ {
			want := i < tbl.Len()
			for _, c := range where {
				want = want && evalCond(tbl.MustValue(i, c.Column), c)
			}
			if got := rows[i>>6]&(1<<(uint(i)&63)) != 0; got != want {
				t.Fatalf("%v: row %d selected %v, want %v", where, i, got, want)
			}
		}
	}
	for _, c := range conds {
		check([]Cond{c})
	}
	// Conjunctions, on one column and across columns.
	for k := 0; k+2 < len(conds); k += 7 {
		check([]Cond{conds[k], conds[k+1], conds[(k*13)%len(conds)]})
	}
	if rows, err := whereRows(tbl, nil); err != nil || rows != nil {
		t.Errorf("no WHERE: %v, %v; want nil (every row)", rows, err)
	}
}
