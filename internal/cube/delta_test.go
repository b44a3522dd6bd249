package cube

import (
	"context"
	"testing"

	"github.com/ddgms/ddgms/internal/star"
	"github.com/ddgms/ddgms/internal/storage"
	"github.com/ddgms/ddgms/internal/value"
)

// Incremental-maintenance tests: an engine whose caches are maintained
// through ApplyDelta must answer every query identically to a cold
// engine over the same (mutated) schema, and targeted invalidation must
// drop only the caches it names.

func deltaFlatSchema() *storage.Schema {
	return storage.MustSchema(
		storage.Field{Name: "Gender", Kind: value.StringKind},
		storage.Field{Name: "Diabetes", Kind: value.StringKind},
		storage.Field{Name: "FBG", Kind: value.FloatKind},
	)
}

func deltaFlat(t *testing.T, rows ...[3]any) *storage.Table {
	t.Helper()
	flat := storage.MustTable(deltaFlatSchema())
	for _, r := range rows {
		if err := flat.AppendRow([]value.Value{
			value.Str(r[0].(string)), value.Str(r[1].(string)), value.Float(r[2].(float64)),
		}); err != nil {
			t.Fatal(err)
		}
	}
	return flat
}

func deltaBuilder() *star.Builder {
	return star.NewBuilder("MedicalMeasures").
		Dimension("Personal",
			[]storage.Field{{Name: "Gender", Kind: value.StringKind}},
			[]string{"Gender"}).
		Dimension("Condition",
			[]storage.Field{{Name: "Diabetes", Kind: value.StringKind}},
			[]string{"Diabetes"}).
		Measure(storage.Field{Name: "FBG", Kind: value.FloatKind}, "FBG")
}

var deltaQueries = []Query{
	{Rows: []AttrRef{refGender}, Measure: MeasureRef{Agg: storage.CountAgg}},
	{Rows: []AttrRef{refGender}, Cols: []AttrRef{refDia}, Measure: MeasureRef{Agg: storage.SumAgg, Column: "FBG"}},
	{Rows: []AttrRef{refDia}, Measure: MeasureRef{Agg: storage.AvgAgg, Column: "FBG"}},
	{Rows: []AttrRef{refGender}, Measure: MeasureRef{Agg: storage.MinAgg, Column: "FBG"}},
	{Rows: []AttrRef{refDia}, Measure: MeasureRef{Agg: storage.MaxAgg, Column: "FBG"}},
	{Rows: []AttrRef{refGender}, Slicers: []Slicer{{Ref: refDia, Values: []value.Value{value.Str("Yes")}}},
		Measure: MeasureRef{Agg: storage.CountAgg}},
	// "X" first appears in an appended row: the Gender coded column must
	// grow a dictionary code for it. Max is never latticed, so the
	// maintained engine answers it by selecting rows on that code.
	{Rows: []AttrRef{refDia}, Slicers: []Slicer{{Ref: refGender, Values: []value.Value{value.Str("X")}}},
		Measure: MeasureRef{Agg: storage.MaxAgg, Column: "FBG"}},
}

// sameCells compares two cell sets exactly: shape, axis labels, and
// every cell (NA matching NA).
func sameCells(t *testing.T, name string, got, want *CellSet) {
	t.Helper()
	if got.Rows() != want.Rows() || got.Columns() != want.Columns() {
		t.Fatalf("%s: shape %dx%d, want %dx%d", name, got.Rows(), got.Columns(), want.Rows(), want.Columns())
	}
	for i := 0; i < got.Rows(); i++ {
		if got.RowLabel(i) != want.RowLabel(i) {
			t.Fatalf("%s: row %d labelled %q, want %q", name, i, got.RowLabel(i), want.RowLabel(i))
		}
	}
	for j := 0; j < got.Columns(); j++ {
		if got.ColLabel(j) != want.ColLabel(j) {
			t.Fatalf("%s: col %d labelled %q, want %q", name, j, got.ColLabel(j), want.ColLabel(j))
		}
	}
	for i := 0; i < got.Rows(); i++ {
		for j := 0; j < got.Columns(); j++ {
			g, w := got.Cell(i, j), want.Cell(i, j)
			if g.IsNA() && w.IsNA() {
				continue
			}
			if !g.Equal(w) {
				t.Fatalf("%s: cell (%s, %s) = %v, want %v", name, got.RowLabel(i), got.ColLabel(j), g, w)
			}
		}
	}
}

// runBattery checks every delta query agrees between the maintained
// engine and a cold engine over the same schema.
func runBattery(t *testing.T, label string, maintained *Engine, schema *star.Schema) {
	t.Helper()
	fresh := NewEngine(schema)
	for qi, q := range deltaQueries {
		got, err := maintained.ExecuteCtx(context.Background(), q)
		if err != nil {
			t.Fatalf("%s: maintained query %d: %v", label, qi, err)
		}
		want, err := fresh.ExecuteCtx(context.Background(), q)
		if err != nil {
			t.Fatalf("%s: fresh query %d: %v", label, qi, err)
		}
		sameCells(t, label+": "+q.Measure.String(), got, want)
	}
}

// TestApplyDeltaMatchesFreshEngine warms the lattice, retires and
// appends fact rows through two successive deltas, and checks the
// maintained engine stays cell-identical to a cold rebuild after each.
func TestApplyDeltaMatchesFreshEngine(t *testing.T) {
	b := deltaBuilder()
	schema, err := b.Build(deltaFlat(t,
		[3]any{"M", "Yes", 7.2},
		[3]any{"M", "Yes", 7.8},
		[3]any{"F", "Yes", 7.5},
		[3]any{"F", "No", 5.1},
		[3]any{"M", "No", 5.4},
	))
	if err != nil {
		t.Fatal(err)
	}
	e := NewEngine(schema)
	// Warm every query once. Count/sum/avg land in the lattice; min/max
	// are never latticed (non-invertible), so they exercise the
	// plain-rescan path below.
	for qi, q := range deltaQueries {
		if _, err := e.ExecuteCtx(context.Background(), q); err != nil {
			t.Fatalf("warm query %d: %v", qi, err)
		}
	}
	if e.LatticeSize() != 4 {
		t.Fatalf("lattice holds %d entries after warming, want the 4 additive ones", e.LatticeSize())
	}

	// Delta 1: retire the two "No" rows, append a new patient and a new
	// member value ("NA" stays unexercised; "F"/"No" recurs later).
	fact := schema.Fact()
	for _, i := range []int{3, 4} {
		if err := fact.Retire(i); err != nil {
			t.Fatalf("Retire(%d): %v", i, err)
		}
	}
	if err := b.Append(schema, deltaFlat(t,
		[3]any{"F", "No", 6.6},
		[3]any{"X", "Yes", 9.9},
	)); err != nil {
		t.Fatalf("Append: %v", err)
	}
	stats, err := e.ApplyDelta(Delta{Retired: []int{3, 4}, Appended: 2})
	if err != nil {
		t.Fatalf("ApplyDelta: %v", err)
	}
	if stats.EntriesMerged != 4 {
		t.Fatalf("delta maintained %d lattice entries in place, want all 4: %+v", stats.EntriesMerged, stats)
	}
	if stats.ColumnsGrown == 0 {
		t.Fatalf("appended rows grew no cached columns: %+v", stats)
	}
	runBattery(t, "delta1", e, schema)

	// Delta 2: retire an appended row too, proving maintenance composes.
	for _, i := range []int{0, 5} {
		if err := fact.Retire(i); err != nil {
			t.Fatalf("Retire(%d): %v", i, err)
		}
	}
	if err := b.Append(schema, deltaFlat(t, [3]any{"M", "No", 4.4})); err != nil {
		t.Fatalf("Append: %v", err)
	}
	if _, err := e.ApplyDelta(Delta{Retired: []int{0, 5}, Appended: 1}); err != nil {
		t.Fatalf("ApplyDelta 2: %v", err)
	}
	runBattery(t, "delta2", e, schema)

	// At-least-once replay at the fact level: re-tombstoning a dead row
	// is a no-op, and the replaying caller passes only newly retired
	// ordinals to ApplyDelta (here: none), so the engine stays exact.
	if err := fact.Retire(0); err != nil {
		t.Fatalf("double Retire: %v", err)
	}
	if _, err := e.ApplyDelta(Delta{}); err != nil {
		t.Fatalf("ApplyDelta replay: %v", err)
	}
	runBattery(t, "replay", e, schema)
}

// TestInvalidateDimensionTargeted checks per-dimension invalidation
// scopes to the named dimension only.
func TestInvalidateDimensionTargeted(t *testing.T) {
	e := NewEngine(testStar(t))
	warm := []Query{
		{Rows: []AttrRef{refGender}, Measure: MeasureRef{Agg: storage.CountAgg}},
		{Rows: []AttrRef{refBand10}, Measure: MeasureRef{Agg: storage.CountAgg}},
		{Rows: []AttrRef{refDia}, Measure: MeasureRef{Agg: storage.CountAgg}},
		{Rows: []AttrRef{refDia}, Slicers: []Slicer{{Ref: refGender, Values: []value.Value{value.Str("M")}}},
			Measure: MeasureRef{Agg: storage.CountAgg}},
	}
	for qi, q := range warm {
		if _, err := e.ExecuteCtx(context.Background(), q); err != nil {
			t.Fatalf("warm query %d: %v", qi, err)
		}
	}
	if size := e.LatticeSize(); size != 4 {
		t.Fatalf("lattice holds %d entries after warming, want 4", size)
	}
	if _, ok := e.codedCols[refGender]; !ok {
		t.Fatal("no coded column for Gender after warming")
	}

	e.InvalidateDimension("Personal")

	// Both Personal entries (Gender, AgeBand10) and the entry sliced on
	// Gender go; the unsliced Condition entry survives.
	if size := e.LatticeSize(); size != 1 {
		t.Fatalf("lattice holds %d entries after InvalidateDimension(Personal), want 1", size)
	}
	for ref := range e.codedCols {
		if ref.Dim == "Personal" {
			t.Fatalf("coded column %v survived InvalidateDimension", ref)
		}
	}
	if _, ok := e.codedCols[refDia]; !ok {
		t.Fatal("Condition coded column was collaterally dropped")
	}
	cs, err := e.ExecuteCtx(context.Background(), warm[1])
	if err != nil {
		t.Fatal(err)
	}
	if v := cellAt(t, cs, "70-80", "(all)"); v.Int() != 5 {
		t.Fatalf("count(70-80) after invalidation = %v, want 5", v)
	}
}
