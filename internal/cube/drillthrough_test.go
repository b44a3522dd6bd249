package cube

import (
	"context"
	"testing"

	"github.com/ddgms/ddgms/internal/storage"
	"github.com/ddgms/ddgms/internal/value"
)

func TestDrillThroughMatchesCellCounts(t *testing.T) {
	e := NewEngine(testStar(t))
	q := Query{
		Rows:    []AttrRef{refBand10},
		Cols:    []AttrRef{refGender},
		Slicers: []Slicer{{Ref: refDia, Values: []value.Value{value.Str("Yes")}}},
		Measure: MeasureRef{Agg: storage.CountAgg},
	}
	cs, err := e.ExecuteCtx(context.Background(), q)
	if err != nil {
		t.Fatal(err)
	}
	// Every cell's count must equal the number of drilled-through facts.
	for i := 0; i < cs.Rows(); i++ {
		for j := 0; j < cs.Columns(); j++ {
			facts, err := e.DrillThrough(q, cs.RowHeaders[i], cs.ColHeaders[j])
			if err != nil {
				t.Fatal(err)
			}
			cell := cs.Cell(i, j)
			wantN := 0
			if !cell.IsNA() {
				wantN = int(cell.Int())
			}
			if len(facts) != wantN {
				t.Errorf("cell (%s,%s): %d facts vs count %d",
					cs.RowLabel(i), cs.ColLabel(j), len(facts), wantN)
			}
		}
	}
}

func TestDrillThroughFactsHaveRightCoordinates(t *testing.T) {
	e := NewEngine(testStar(t))
	q := Query{
		Rows:    []AttrRef{refBand10},
		Cols:    []AttrRef{refGender},
		Measure: MeasureRef{Agg: storage.CountAgg},
	}
	facts, err := e.DrillThrough(q,
		[]value.Value{value.Str("70-80")}, []value.Value{value.Str("M")})
	if err != nil {
		t.Fatal(err)
	}
	if len(facts) == 0 {
		t.Fatal("no facts")
	}
	// Verify each fact's dimension attributes via the star schema.
	dim, _ := e.Schema().Dimension("Personal")
	for _, f := range facts {
		k, err := e.Schema().Fact().Key(f, "Personal")
		if err != nil {
			t.Fatal(err)
		}
		band, _ := dim.Attr(k, "AgeBand10")
		g, _ := dim.Attr(k, "Gender")
		if band.Str() != "70-80" || g.Str() != "M" {
			t.Errorf("fact %d coordinates = %v/%v", f, band, g)
		}
	}
}

func TestDrillThroughErrors(t *testing.T) {
	e := NewEngine(testStar(t))
	q := Query{Rows: []AttrRef{refBand10}, Measure: MeasureRef{Agg: storage.CountAgg}}
	if _, err := e.DrillThrough(q, nil, nil); err == nil {
		t.Error("short row tuple must fail")
	}
	if _, err := e.DrillThrough(q, []value.Value{value.Str("x")}, []value.Value{value.Str("y")}); err == nil {
		t.Error("excess column tuple must fail")
	}
	// Unknown coordinate values: empty result, not an error.
	facts, err := e.DrillThrough(q, []value.Value{value.Str("no-such-band")}, nil)
	if err != nil || len(facts) != 0 {
		t.Errorf("unknown coordinate: %v, %v", facts, err)
	}
}
