package cube

import (
	"context"
	"testing"
	"testing/quick"

	"github.com/ddgms/ddgms/internal/flatquery"
	"github.com/ddgms/ddgms/internal/star"
	"github.com/ddgms/ddgms/internal/storage"
	"github.com/ddgms/ddgms/internal/value"
)

// Cross-engine equivalence: the cube engine and the flat-scan baseline
// implement the same aggregation semantics by two completely different
// routes (surrogate-keyed warehouse vs direct scan). For random data they
// must agree cell for cell — a strong mutual check on both engines.

// flatResultCell returns the aggregate of the flat result's (a, b) group;
// ok reports whether the group exists.
func flatResultCell(r *flatquery.Result, a, b value.Value) (v value.Value, ok bool) {
	g := r.Grouped
	for i := 0; i < g.Len(); i++ {
		if g.ColumnAt(0).Value(i).Equal(a) && g.ColumnAt(1).Value(i).Equal(b) {
			return g.MustValue(i, r.AggName), true
		}
	}
	return value.NA(), false
}

// randomFlat builds a flat table from a byte seed: two categorical
// grouping columns, one filter column, one measure.
func randomFlat(seed []byte) (*storage.Table, error) {
	tbl := storage.MustTable(storage.MustSchema(
		storage.Field{Name: "A", Kind: value.StringKind},
		storage.Field{Name: "B", Kind: value.StringKind},
		storage.Field{Name: "F", Kind: value.StringKind},
		storage.Field{Name: "M", Kind: value.FloatKind},
	))
	as := []string{"a0", "a1", "a2", "a3"}
	bs := []string{"b0", "b1", "b2"}
	fs := []string{"yes", "no"}
	for i, by := range seed {
		row := []value.Value{
			value.Str(as[int(by)%len(as)]),
			value.Str(bs[int(by>>2)%len(bs)]),
			value.Str(fs[int(by>>4)%len(fs)]),
			value.Float(float64(by%23) + float64(i%7)),
		}
		if by%13 == 0 {
			row[0] = value.NA()
		}
		if by%17 == 0 {
			row[3] = value.NA()
		}
		if err := tbl.AppendRow(row); err != nil {
			return nil, err
		}
	}
	return tbl, nil
}

func starOver(flat *storage.Table) (*star.Schema, error) {
	str := func(n string) storage.Field { return storage.Field{Name: n, Kind: value.StringKind} }
	return star.NewBuilder("T").
		Dimension("DA", []storage.Field{str("A")}, []string{"A"}).
		Dimension("DB", []storage.Field{str("B")}, []string{"B"}).
		Dimension("DF", []storage.Field{str("F")}, []string{"F"}).
		Measure(storage.Field{Name: "M", Kind: value.FloatKind}, "M").
		Build(flat)
}

func TestQuickCubeAgreesWithFlatScan(t *testing.T) {
	prop := func(seed []byte, filterYes bool) bool {
		if len(seed) < 4 {
			return true
		}
		flat, err := randomFlat(seed)
		if err != nil {
			return false
		}
		schema, err := starOver(flat)
		if err != nil {
			return false
		}
		e := NewEngine(schema)

		var slicers []Slicer
		var filters []flatquery.Filter
		if filterYes {
			slicers = []Slicer{{Ref: AttrRef{Dim: "DF", Attr: "F"}, Values: []value.Value{value.Str("yes")}}}
			filters = []flatquery.Filter{{Column: "F", Values: []value.Value{value.Str("yes")}}}
		}
		for _, agg := range []storage.AggKind{storage.CountAgg, storage.SumAgg, storage.AvgAgg, storage.MinAgg, storage.MaxAgg} {
			measure := MeasureRef{Agg: agg, Column: "M"}
			fqMeasure := "M"
			if agg == storage.CountAgg {
				measure = MeasureRef{Agg: storage.CountAgg}
				fqMeasure = ""
			}
			cs, err := e.ExecuteCtx(context.Background(), Query{
				Rows:    []AttrRef{{Dim: "DA", Attr: "A"}},
				Cols:    []AttrRef{{Dim: "DB", Attr: "B"}},
				Slicers: slicers,
				Measure: measure,
			})
			if err != nil {
				return false
			}
			fr, err := flatquery.ExecuteCtx(context.Background(), flat, flatquery.Query{
				Rows:    []string{"A"},
				Cols:    []string{"B"},
				Filters: filters,
				Agg:     agg,
				Measure: fqMeasure,
			})
			if err != nil {
				return false
			}
			// Every cube cell must match the flat result, and vice versa:
			// compare cell by cell through the flat lookup.
			nonNA := 0
			for i := 0; i < cs.Rows(); i++ {
				for j := 0; j < cs.Columns(); j++ {
					cubeCell := cs.Cell(i, j)
					flatCell, ok := flatResultCell(fr, cs.RowHeaders[i][0], cs.ColHeaders[j][0])
					if cubeCell.IsNA() {
						// Either no facts at this coordinate (flat result
						// lacks the cell) or an all-NA measure group.
						if ok && !flatCell.IsNA() {
							return false
						}
						continue
					}
					nonNA++
					if !ok {
						return false
					}
					cf, _ := cubeCell.AsFloat()
					ff, _ := flatCell.AsFloat()
					if d := cf - ff; d > 1e-9 || d < -1e-9 {
						return false
					}
				}
			}
			// The flat result must not contain extra populated groups.
			if nonNA > fr.Grouped.Len() {
				return false
			}
		}
		return true
	}
	cfg := &quick.Config{MaxCount: 30}
	if err := quick.Check(prop, cfg); err != nil {
		t.Error(err)
	}
}
