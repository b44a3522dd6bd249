package mining

import (
	"math/rand"
	"testing"

	"github.com/ddgms/ddgms/internal/value"
)

// selectionDataset has one strongly informative feature (FBG), one weakly
// informative (Reflex) and two pure-noise features.
func selectionDataset(n int, seed int64) *Dataset {
	rng := rand.New(rand.NewSource(seed))
	ds := &Dataset{Features: []string{"Noise1", "FBG", "Noise2", "Reflex"}}
	for i := 0; i < n; i++ {
		fbg := 4 + rng.Float64()*6
		diabetic := fbg >= 7
		reflex := "present"
		if diabetic && rng.Float64() < 0.6 || !diabetic && rng.Float64() < 0.15 {
			reflex = "absent"
		}
		label := "healthy"
		if diabetic {
			label = "diabetic"
		}
		ds.X = append(ds.X, []value.Value{
			value.Float(rng.NormFloat64()),
			value.Float(fbg),
			value.Str([]string{"a", "b", "c"}[rng.Intn(3)]),
			value.Str(reflex),
		})
		ds.Y = append(ds.Y, value.Str(label))
	}
	return ds
}

func TestMutualInformationRanking(t *testing.T) {
	ds := selectionDataset(800, 31)
	ranking, err := MutualInformation(ds)
	if err != nil {
		t.Fatal(err)
	}
	if len(ranking) != 4 {
		t.Fatalf("ranking size = %d", len(ranking))
	}
	if ranking[0].Feature != "FBG" {
		t.Errorf("top feature = %s, want FBG (scores %+v)", ranking[0].Feature, ranking)
	}
	if ranking[1].Feature != "Reflex" {
		t.Errorf("second feature = %s, want Reflex", ranking[1].Feature)
	}
	// Noise features carry near-zero information.
	for _, fs := range ranking[2:] {
		if fs.Score > 0.1 {
			t.Errorf("noise feature %s has MI %.3f", fs.Feature, fs.Score)
		}
	}
	// All scores non-negative.
	for _, fs := range ranking {
		if fs.Score < -1e-9 {
			t.Errorf("negative MI for %s: %g", fs.Feature, fs.Score)
		}
	}
}

func TestMutualInformationErrors(t *testing.T) {
	if _, err := MutualInformation(&Dataset{Features: []string{"A"}}); err == nil {
		t.Error("empty dataset must fail")
	}
}

func TestWrapperFilterSelect(t *testing.T) {
	ds := selectionDataset(500, 32)
	res, err := WrapperFilterSelect(func() Classifier { return NewNaiveBayes() }, ds,
		WrapperFilterConfig{Folds: 3, Seed: 7, MinGain: 0.005})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Selected) == 0 {
		t.Fatal("nothing selected")
	}
	if res.Selected[0] != "FBG" {
		t.Errorf("first selected = %s, want FBG", res.Selected[0])
	}
	// The subset should be small: noise features rejected.
	for _, f := range res.Selected {
		if f == "Noise1" || f == "Noise2" {
			t.Errorf("noise feature %s selected", f)
		}
	}
	if res.Accuracy < 0.9 {
		t.Errorf("selected-subset accuracy = %.3f", res.Accuracy)
	}
	if len(res.FilterRanking) != 4 {
		t.Errorf("filter ranking = %d entries", len(res.FilterRanking))
	}
}

func TestWrapperFilterTopK(t *testing.T) {
	ds := selectionDataset(300, 33)
	res, err := WrapperFilterSelect(func() Classifier { return NewNaiveBayes() }, ds,
		WrapperFilterConfig{TopK: 1, Folds: 3, Seed: 7})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Selected) != 1 {
		t.Errorf("TopK=1 selected %v", res.Selected)
	}
}
