package cube

import (
	"context"
	"testing"

	"github.com/ddgms/ddgms/internal/star"
	"github.com/ddgms/ddgms/internal/storage"
	"github.com/ddgms/ddgms/internal/value"
)

// End-to-end snowflake: a Locality outrigger normalised out of the
// Personal dimension is queryable through the engine with dotted
// attribute references, in both axes and slicers.
func TestSnowflakeQueryThroughOutrigger(t *testing.T) {
	flat := storage.MustTable(storage.MustSchema(
		storage.Field{Name: "Gender", Kind: value.StringKind},
		storage.Field{Name: "Rurality", Kind: value.StringKind},
		storage.Field{Name: "FBG", Kind: value.FloatKind},
	))
	add := func(g, r string, fbg float64) {
		if err := flat.AppendRow([]value.Value{value.Str(g), value.Str(r), value.Float(fbg)}); err != nil {
			t.Fatal(err)
		}
	}
	add("M", "town", 5.0)
	add("F", "town", 6.0)
	add("F", "remote", 7.0)
	add("M", "rural", 8.0)
	add("F", "rural", 9.0)

	s, err := star.NewBuilder("T").
		Dimension("Personal",
			[]storage.Field{{Name: "Gender", Kind: value.StringKind}, {Name: "Rurality", Kind: value.StringKind}},
			[]string{"Gender", "Rurality"}).
		Measure(storage.Field{Name: "FBG", Kind: value.FloatKind}, "FBG").
		Build(flat)
	if err != nil {
		t.Fatal(err)
	}
	dim, _ := s.Dimension("Personal")
	rig, err := star.NewOutrigger("Locality", []storage.Field{
		{Name: "Remoteness", Kind: value.StringKind},
	})
	if err != nil {
		t.Fatal(err)
	}
	err = dim.AttachOutrigger(rig, func(member []value.Value) ([]value.Value, error) {
		if member[1].IsNA() {
			return nil, nil
		}
		if member[1].Str() == "town" {
			return []value.Value{value.Str("urban")}, nil
		}
		return []value.Value{value.Str("non-urban")}, nil
	})
	if err != nil {
		t.Fatal(err)
	}

	e := NewEngine(s)
	remote := AttrRef{Dim: "Personal", Attr: "Locality.Remoteness"}
	cs, err := e.ExecuteCtx(context.Background(), Query{
		Rows:    []AttrRef{remote},
		Measure: MeasureRef{Agg: storage.CountAgg},
	})
	if err != nil {
		t.Fatal(err)
	}
	if v := cellAt(t, cs, "non-urban", "(all)"); v.Int() != 3 {
		t.Errorf("non-urban count = %v", v)
	}
	if v := cellAt(t, cs, "urban", "(all)"); v.Int() != 2 {
		t.Errorf("urban count = %v", v)
	}

	// Slicer through the outrigger.
	cs, err = e.ExecuteCtx(context.Background(), Query{
		Rows:    []AttrRef{{Dim: "Personal", Attr: "Gender"}},
		Slicers: []Slicer{{Ref: remote, Values: []value.Value{value.Str("non-urban")}}},
		Measure: MeasureRef{Agg: storage.AvgAgg, Column: "FBG"},
	})
	if err != nil {
		t.Fatal(err)
	}
	if v := cellAt(t, cs, "F", "(all)"); !approx(v.Float(), (7.0+9.0)/2) {
		t.Errorf("non-urban F avg = %v", v)
	}
	// Bad inner attribute surfaces as unknown attribute.
	_, err = e.ExecuteCtx(context.Background(), Query{
		Rows:    []AttrRef{{Dim: "Personal", Attr: "Locality.Nope"}},
		Measure: MeasureRef{Agg: storage.CountAgg},
	})
	if err == nil {
		t.Error("bad outrigger attribute must fail")
	}
}
