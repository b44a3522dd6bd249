package star

import (
	"strings"
	"testing"

	"github.com/ddgms/ddgms/internal/storage"
	"github.com/ddgms/ddgms/internal/value"
)

// flatVisits builds a small transformed DiScRi-like flat table.
func flatVisits(t *testing.T) *storage.Table {
	t.Helper()
	tbl := storage.MustTable(storage.MustSchema(
		storage.Field{Name: "Gender", Kind: value.StringKind},
		storage.Field{Name: "AgeBand10", Kind: value.StringKind},
		storage.Field{Name: "AgeBand5", Kind: value.StringKind},
		storage.Field{Name: "Diabetes", Kind: value.StringKind},
		storage.Field{Name: "VisitNo", Kind: value.IntKind},
		storage.Field{Name: "FBG", Kind: value.FloatKind},
	))
	add := func(g, b10, b5, dia string, visit int64, fbg float64) {
		row := []value.Value{
			value.Str(g), value.Str(b10), value.Str(b5), value.Str(dia),
			value.Int(visit), value.Float(fbg),
		}
		if err := tbl.AppendRow(row); err != nil {
			t.Fatal(err)
		}
	}
	add("M", "70-80", "70-75", "Yes", 1, 7.2)
	add("M", "70-80", "70-75", "Yes", 2, 7.8)
	add("F", "70-80", "75-80", "Yes", 1, 7.5)
	add("F", "40-60", "40-45", "No", 1, 5.1)
	add("M", "40-60", "45-50", "No", 1, 5.4)
	return tbl
}

func visitsBuilder() *Builder {
	return NewBuilder("MedicalMeasures").
		Dimension("PersonalInformation",
			[]storage.Field{{Name: "Gender", Kind: value.StringKind},
				{Name: "AgeBand10", Kind: value.StringKind},
				{Name: "AgeBand5", Kind: value.StringKind}},
			[]string{"Gender", "AgeBand10", "AgeBand5"},
			Hierarchy{Name: "Age", Levels: []string{"AgeBand10", "AgeBand5"}}).
		Dimension("MedicalCondition",
			[]storage.Field{{Name: "Diabetes", Kind: value.StringKind}},
			[]string{"Diabetes"}).
		Dimension("Cardinality",
			[]storage.Field{{Name: "VisitNo", Kind: value.IntKind}},
			[]string{"VisitNo"}).
		Measure(storage.Field{Name: "FBG", Kind: value.FloatKind}, "FBG")
}

func buildStar(t *testing.T) *Schema {
	t.Helper()
	s, err := visitsBuilder().Build(flatVisits(t))
	if err != nil {
		t.Fatalf("Build: %v", err)
	}
	return s
}

func TestBuildInternsDimensionMembers(t *testing.T) {
	s := buildStar(t)
	pi, ok := s.Dimension("PersonalInformation")
	if !ok {
		t.Fatal("missing dimension")
	}
	// 5 facts but only 4 distinct (gender, band10, band5) tuples —
	// the two male 70-75 visits share a member.
	if pi.Len() != 4 {
		t.Errorf("PersonalInformation members = %d, want 4", pi.Len())
	}
	if s.Fact().Len() != 5 {
		t.Errorf("facts = %d, want 5", s.Fact().Len())
	}
	// Facts 0 and 1 share the same surrogate key.
	keys, err := s.Fact().KeyColumn("PersonalInformation")
	if err != nil {
		t.Fatal(err)
	}
	k0, k1 := keys[0], keys[1]
	if k0 != k1 {
		t.Errorf("shared member not deduped: %d vs %d", k0, k1)
	}
	// Attribute read-through.
	g, err := pi.Attr(k0, "Gender")
	if err != nil || g.Str() != "M" {
		t.Errorf("Attr = %v, %v", g, err)
	}
}

func TestHierarchyNavigation(t *testing.T) {
	s := buildStar(t)
	pi, _ := s.Dimension("PersonalInformation")
	hierarchy := func(name string) (Hierarchy, bool) {
		for _, h := range pi.Hierarchies() {
			if h.Name == name {
				return h, true
			}
		}
		return Hierarchy{}, false
	}
	h, ok := hierarchy("Age")
	if !ok {
		t.Fatal("missing hierarchy")
	}
	if got := h.Finer("AgeBand10"); got != "AgeBand5" {
		t.Errorf("Finer = %q", got)
	}
	if got := h.Finer("AgeBand5"); got != "" {
		t.Errorf("Finer at finest = %q", got)
	}
	if _, ok := hierarchy("Nope"); ok {
		t.Error("unknown hierarchy must report !ok")
	}
}

func TestBuilderValidation(t *testing.T) {
	flat := flatVisits(t)
	// Unknown source column.
	_, err := NewBuilder("X").
		Dimension("D", []storage.Field{{Name: "A", Kind: value.StringKind}}, []string{"Nope"}).
		Build(flat)
	if err == nil {
		t.Error("unknown source column must fail")
	}
	// Kind mismatch.
	_, err = NewBuilder("X").
		Dimension("D", []storage.Field{{Name: "A", Kind: value.IntKind}}, []string{"Gender"}).
		Build(flat)
	if err == nil {
		t.Error("kind mismatch must fail")
	}
	// Attr/column arity mismatch.
	_, err = NewBuilder("X").
		Dimension("D", []storage.Field{{Name: "A", Kind: value.StringKind}}, []string{"Gender", "Diabetes"}).
		Build(flat)
	if err == nil {
		t.Error("arity mismatch must fail")
	}
	// No dimensions.
	if _, err = NewBuilder("X").Build(flat); err == nil {
		t.Error("no dimensions must fail")
	}
	// Bad measure column.
	_, err = NewBuilder("X").
		Dimension("D", []storage.Field{{Name: "A", Kind: value.StringKind}}, []string{"Gender"}).
		Measure(storage.Field{Name: "M", Kind: value.FloatKind}, "Nope").
		Build(flat)
	if err == nil {
		t.Error("unknown measure column must fail")
	}
	// Non-numeric measure.
	if _, err := NewFactTable([]string{"D"}, []storage.Field{{Name: "M", Kind: value.StringKind}}); err == nil {
		t.Error("string measure must fail")
	}
	// Bad hierarchy.
	if _, err := NewDimension("D", []storage.Field{{Name: "A", Kind: value.StringKind}},
		Hierarchy{Name: "H", Levels: []string{"A"}}); err == nil {
		t.Error("single-level hierarchy must fail")
	}
	if _, err := NewDimension("D", []storage.Field{{Name: "A", Kind: value.StringKind}},
		Hierarchy{Name: "H", Levels: []string{"A", "B"}}); err == nil {
		t.Error("hierarchy over unknown attribute must fail")
	}
}

func TestAllNADimensionGetsNoKey(t *testing.T) {
	flat := storage.MustTable(storage.MustSchema(
		storage.Field{Name: "G", Kind: value.StringKind},
		storage.Field{Name: "M", Kind: value.FloatKind},
	))
	flat.AppendRow([]value.Value{value.NA(), value.Float(1)})
	flat.AppendRow([]value.Value{value.Str("F"), value.Float(2)})
	s, err := NewBuilder("F").
		Dimension("D", []storage.Field{{Name: "G", Kind: value.StringKind}}, []string{"G"}).
		Measure(storage.Field{Name: "M", Kind: value.FloatKind}, "M").
		Build(flat)
	if err != nil {
		t.Fatal(err)
	}
	keys, _ := s.Fact().KeyColumn("D")
	if k := keys[0]; k != NoKey {
		t.Errorf("all-NA fact key = %d, want NoKey", k)
	}
	d, _ := s.Dimension("D")
	if d.Len() != 1 {
		t.Errorf("members = %d, want 1", d.Len())
	}
}

func TestAddFeedbackDimension(t *testing.T) {
	s := buildStar(t)
	// Clinician feedback: flag facts with FBG >= 7 as "review".
	err := s.AddFeedbackDimension("ClinicianFlag",
		[]storage.Field{{Name: "Flag", Kind: value.StringKind}},
		func(sc *Schema, i int) ([]value.Value, error) {
			fbg, err := sc.Fact().Measure("FBG")
			if err != nil {
				return nil, err
			}
			if f, ok := fbg.Value(i).AsFloat(); ok && f >= 7 {
				return []value.Value{value.Str("review")}, nil
			}
			return []value.Value{value.Str("ok")}, nil
		})
	if err != nil {
		t.Fatal(err)
	}
	fd, ok := s.Dimension("ClinicianFlag")
	if !ok {
		t.Fatal("feedback dimension missing")
	}
	if fd.Len() != 2 {
		t.Errorf("feedback members = %d, want 2", fd.Len())
	}
	// Fact 0 (FBG 7.2) must be flagged review.
	flags, err := s.Fact().KeyColumn("ClinicianFlag")
	if err != nil {
		t.Fatal(err)
	}
	v, _ := fd.Attr(flags[0], "Flag")
	if v.Str() != "review" {
		t.Errorf("fact 0 flag = %v", v)
	}
	// Appended facts are classified as the graft classified the first
	// load: the second copy of the visits repeats the first's flags.
	if err := visitsBuilder().Append(s, flatVisits(t)); err != nil {
		t.Fatal(err)
	}
	n := flatVisits(t).Len()
	flags, _ = s.Fact().KeyColumn("ClinicianFlag")
	for i := 0; i < n; i++ {
		if first, again := flags[i], flags[n+i]; again != first {
			t.Errorf("appended fact %d key = %d, first load's = %d", n+i, again, first)
		}
	}
	// Duplicate name rejected.
	if err := s.AddFeedbackDimension("ClinicianFlag", nil, nil); err == nil {
		t.Error("duplicate feedback dimension must fail")
	}
}

func TestDescribe(t *testing.T) {
	s := buildStar(t)
	d := s.Describe()
	for _, want := range []string{"Fact: MedicalMeasures", "PersonalInformation", "hierarchy Age", "FBG", "Cardinality"} {
		if !strings.Contains(d, want) {
			t.Errorf("Describe missing %q:\n%s", want, d)
		}
	}
}

func TestFactTableErrors(t *testing.T) {
	ft, err := NewFactTable([]string{"D"}, []storage.Field{{Name: "M", Kind: value.FloatKind}})
	if err != nil {
		t.Fatal(err)
	}
	if err := ft.Append(map[string]Key{}, []value.Value{value.Float(1)}); err == nil {
		t.Error("missing key must fail")
	}
	if err := ft.Append(map[string]Key{"X": 0}, []value.Value{value.Float(1)}); err == nil {
		t.Error("unknown dimension must fail")
	}
	if err := ft.Append(map[string]Key{"D": 0}, []value.Value{value.Str("x")}); err == nil {
		t.Error("bad measure kind must fail")
	}
	if keys, err := ft.KeyColumn("D"); err != nil || len(keys) != 0 {
		t.Errorf("KeyColumn of an empty fact table = %v, %v; want no rows", keys, err)
	}
	if _, err := ft.KeyColumn("X"); err == nil {
		t.Error("unknown dimension must fail")
	}
	if _, err := NewFactTable(nil, nil); err == nil {
		t.Error("no dimensions must fail")
	}
	if _, err := NewFactTable([]string{"D", "D"}, nil); err == nil {
		t.Error("duplicate dimensions must fail")
	}
}
