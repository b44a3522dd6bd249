package mining

import (
	"strings"
	"testing"

	"github.com/ddgms/ddgms/internal/storage"
	"github.com/ddgms/ddgms/internal/value"
)

func basketTable(t *testing.T) *storage.Table {
	t.Helper()
	tbl := storage.MustTable(storage.MustSchema(
		storage.Field{Name: "Reflex", Kind: value.StringKind},
		storage.Field{Name: "FBGBand", Kind: value.StringKind},
		storage.Field{Name: "Diabetes", Kind: value.StringKind},
	))
	add := func(reflex, band, dia string, times int) {
		for i := 0; i < times; i++ {
			row := []value.Value{value.Str(reflex), value.Str(band), value.Str(dia)}
			if reflex == "" {
				row[0] = value.NA()
			}
			if err := tbl.AppendRow(row); err != nil {
				t.Fatal(err)
			}
		}
	}
	// The planted pattern: absent reflex + mid-range glucose => diabetes.
	add("absent", "mid", "Yes", 30)
	add("present", "mid", "No", 25)
	add("present", "normal", "No", 30)
	add("absent", "normal", "No", 5)
	add("present", "high", "Yes", 8)
	add("", "mid", "No", 2)
	return tbl
}

func TestAprioriFindsPlantedRule(t *testing.T) {
	rules, err := Apriori(basketTable(t), []string{"Reflex", "FBGBand", "Diabetes"},
		AprioriConfig{MinSupport: 0.1, MinConfidence: 0.8})
	if err != nil {
		t.Fatal(err)
	}
	if len(rules) == 0 {
		t.Fatal("no rules found")
	}
	// Look for {Reflex=absent, FBGBand=mid} => {Diabetes=Yes}.
	found := false
	for _, r := range rules {
		s := r.String()
		if strings.HasPrefix(s, "FBGBand=mid & Reflex=absent => Diabetes=Yes") {
			found = true
			if r.Confidence < 0.99 {
				t.Errorf("planted rule confidence = %g", r.Confidence)
			}
			if r.Lift <= 1 {
				t.Errorf("planted rule lift = %g, want > 1", r.Lift)
			}
		}
	}
	if !found {
		var all []string
		for _, r := range rules {
			all = append(all, r.String())
		}
		t.Errorf("planted rule missing; got:\n%s", strings.Join(all, "\n"))
	}
}

func TestAprioriSupportPruning(t *testing.T) {
	// With a high support floor, rare combinations disappear.
	rules, err := Apriori(basketTable(t), []string{"Reflex", "FBGBand", "Diabetes"},
		AprioriConfig{MinSupport: 0.5, MinConfidence: 0.5})
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range rules {
		if r.Support < 0.5 {
			t.Errorf("rule below support floor: %s", r)
		}
	}
}

func TestAprioriRespectsMaxItems(t *testing.T) {
	rules, err := Apriori(basketTable(t), []string{"Reflex", "FBGBand", "Diabetes"},
		AprioriConfig{MinSupport: 0.05, MinConfidence: 0.5, MaxItems: 2})
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range rules {
		if len(r.Antecedent)+len(r.Consequent) > 2 {
			t.Errorf("rule exceeds MaxItems: %s", r)
		}
	}
}

func TestAprioriErrors(t *testing.T) {
	tbl := basketTable(t)
	if _, err := Apriori(tbl, []string{"Nope"}, AprioriConfig{MinSupport: 0.1, MinConfidence: 0.5}); err == nil {
		t.Error("unknown column must fail")
	}
	if _, err := Apriori(tbl, []string{"Reflex"}, AprioriConfig{MinSupport: 0, MinConfidence: 0.5}); err == nil {
		t.Error("zero support must fail")
	}
	if _, err := Apriori(tbl, []string{"Reflex"}, AprioriConfig{MinSupport: 0.1, MinConfidence: 2}); err == nil {
		t.Error("confidence > 1 must fail")
	}
	empty := storage.MustTable(storage.MustSchema(storage.Field{Name: "A", Kind: value.StringKind}))
	if _, err := Apriori(empty, []string{"A"}, AprioriConfig{MinSupport: 0.1, MinConfidence: 0.5}); err == nil {
		t.Error("empty table must fail")
	}
}

func TestKNNNeighbours(t *testing.T) {
	ds := diabetesDataset(50, 23)
	knn := NewKNN(3)
	if _, err := knn.Neighbours(ds.X[0], 3); err == nil {
		t.Error("neighbours before fit must fail")
	}
	if err := knn.Fit(ds); err != nil {
		t.Fatal(err)
	}
	ns, err := knn.Neighbours(ds.X[0], 3)
	if err != nil {
		t.Fatal(err)
	}
	if len(ns) != 3 || ns[0] != 0 {
		t.Errorf("neighbours = %v (instance 0 must be its own nearest)", ns)
	}
	// k larger than the dataset clamps.
	ns, err = knn.Neighbours(ds.X[0], 500)
	if err != nil || len(ns) != 50 {
		t.Errorf("clamped neighbours = %d, %v", len(ns), err)
	}
}
