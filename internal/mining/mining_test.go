package mining

import (
	"math/rand"
	"strings"
	"testing"

	"github.com/ddgms/ddgms/internal/storage"
	"github.com/ddgms/ddgms/internal/value"
)

// diabetesDataset synthesises a clean learnable problem: diabetes iff
// FBG >= 7, with reflex and gender as (partially) informative extras.
func diabetesDataset(n int, seed int64) *Dataset {
	rng := rand.New(rand.NewSource(seed))
	ds := &Dataset{Features: []string{"FBG", "Reflex", "Gender"}}
	for i := 0; i < n; i++ {
		fbg := 4 + rng.Float64()*6 // 4..10
		diabetic := fbg >= 7
		reflex := "present"
		// Absent reflexes correlate with diabetes (the paper's interaction).
		if diabetic && rng.Float64() < 0.7 || !diabetic && rng.Float64() < 0.1 {
			reflex = "absent"
		}
		gender := "M"
		if rng.Intn(2) == 0 {
			gender = "F"
		}
		label := "healthy"
		if diabetic {
			label = "diabetic"
		}
		ds.X = append(ds.X, []value.Value{value.Float(fbg), value.Str(reflex), value.Str(gender)})
		ds.Y = append(ds.Y, value.Str(label))
	}
	return ds
}

func holdoutAccuracy(t *testing.T, clf Classifier, ds *Dataset, seed int64) float64 {
	t.Helper()
	idx := rand.New(rand.NewSource(seed)).Perm(ds.Len())
	cut := int(float64(ds.Len()) * 0.7)
	train, test := idx[:cut], idx[cut:]
	if err := clf.Fit(ds.Subset(train)); err != nil {
		t.Fatal(err)
	}
	cm := NewConfusionMatrix()
	for _, i := range test {
		pred, err := clf.Predict(ds.X[i])
		if err != nil {
			t.Fatal(err)
		}
		cm.Observe(ds.Y[i], pred)
	}
	return cm.Accuracy()
}

func TestNaiveBayesLearnsSeparableProblem(t *testing.T) {
	ds := diabetesDataset(600, 1)
	if acc := holdoutAccuracy(t, NewNaiveBayes(), ds, 2); acc < 0.9 {
		t.Errorf("NaiveBayes accuracy = %.3f, want >= 0.9", acc)
	}
}

func TestDecisionTreeLearnsSeparableProblem(t *testing.T) {
	ds := diabetesDataset(600, 3)
	dt := NewDecisionTree()
	if acc := holdoutAccuracy(t, dt, ds, 4); acc < 0.95 {
		t.Errorf("DecisionTree accuracy = %.3f, want >= 0.95", acc)
	}
	desc := dt.Describe()
	if !strings.Contains(desc, "FBG") {
		t.Errorf("tree should split on FBG:\n%s", desc)
	}
}

func TestKNNLearnsSeparableProblem(t *testing.T) {
	ds := diabetesDataset(400, 5)
	if acc := holdoutAccuracy(t, NewKNN(5), ds, 6); acc < 0.85 {
		t.Errorf("KNN accuracy = %.3f, want >= 0.85", acc)
	}
}

func TestAWSumLearnsDiscretisedProblem(t *testing.T) {
	// AWSum needs categorical features: discretise FBG first.
	raw := diabetesDataset(600, 7)
	ds := &Dataset{Features: raw.Features}
	for i, x := range raw.X {
		band := "normal"
		if f, _ := x[0].AsFloat(); f >= 7 {
			band = "high"
		} else if f >= 6.1 {
			band = "preDiabetic"
		}
		ds.X = append(ds.X, []value.Value{value.Str(band), x[1], x[2]})
		ds.Y = append(ds.Y, raw.Y[i])
	}
	aw := NewAWSum()
	if acc := holdoutAccuracy(t, aw, ds, 8); acc < 0.9 {
		t.Errorf("AWSum accuracy = %.3f, want >= 0.9", acc)
	}
	// The interpretable weights: FBG=high must be top evidence for
	// diabetic.
	ev, err := aw.TopEvidence(ds.Features, value.Str("diabetic"), 3)
	if err != nil {
		t.Fatal(err)
	}
	if len(ev) == 0 || ev[0].Feature != "FBG" || ev[0].Value.Str() != "high" {
		t.Errorf("top evidence = %+v, want FBG=high first", ev)
	}
	if _, err := aw.TopEvidence(ds.Features, value.Str("nonexistent"), 3); err == nil {
		t.Error("unknown class must fail")
	}
}

func TestClassifierErrorPaths(t *testing.T) {
	clfs := []Classifier{NewNaiveBayes(), NewDecisionTree(), NewKNN(3), NewAWSum()}
	empty := &Dataset{Features: []string{"A"}}
	for _, c := range clfs {
		if err := c.Fit(empty); err == nil {
			t.Errorf("%T: empty dataset must fail", c)
		}
		if _, err := c.Predict([]value.Value{value.Str("x")}); err == nil {
			t.Errorf("%T: predict before fit must fail", c)
		}
	}
	// Ragged instances.
	ragged := &Dataset{
		Features: []string{"A", "B"},
		X:        [][]value.Value{{value.Str("x")}},
		Y:        []value.Value{value.Str("c")},
	}
	for _, c := range clfs {
		if err := c.Fit(ragged); err == nil {
			t.Errorf("%T: ragged dataset must fail", c)
		}
	}
	// Wrong predict arity.
	ds := diabetesDataset(50, 9)
	nb := NewNaiveBayes()
	if err := nb.Fit(ds); err != nil {
		t.Fatal(err)
	}
	if _, err := nb.Predict([]value.Value{value.Float(5)}); err == nil {
		t.Error("wrong arity predict must fail")
	}
}

func TestMissingValuesTolerated(t *testing.T) {
	ds := diabetesDataset(300, 10)
	// Punch holes in 20% of the features.
	rng := rand.New(rand.NewSource(11))
	for _, x := range ds.X {
		for j := range x {
			if rng.Float64() < 0.2 {
				x[j] = value.NA()
			}
		}
	}
	for _, clf := range []Classifier{NewNaiveBayes(), NewDecisionTree(), NewKNN(5)} {
		if err := clf.Fit(ds); err != nil {
			t.Fatalf("%T fit with missing values: %v", clf, err)
		}
		if _, err := clf.Predict([]value.Value{value.NA(), value.NA(), value.NA()}); err != nil {
			t.Errorf("%T all-NA predict: %v", clf, err)
		}
	}
}

func TestFromTable(t *testing.T) {
	tbl := storage.MustTable(storage.MustSchema(
		storage.Field{Name: "FBG", Kind: value.FloatKind},
		storage.Field{Name: "Diabetes", Kind: value.StringKind},
	))
	tbl.AppendRow([]value.Value{value.Float(5), value.Str("No")})
	tbl.AppendRow([]value.Value{value.Float(8), value.Str("Yes")})
	tbl.AppendRow([]value.Value{value.Float(7), value.NA()}) // dropped
	ds, err := FromTable(tbl, []string{"FBG"}, "Diabetes")
	if err != nil {
		t.Fatal(err)
	}
	if ds.Len() != 2 {
		t.Errorf("instances = %d, want 2 (NA label dropped)", ds.Len())
	}
	if _, err := FromTable(tbl, []string{"Nope"}, "Diabetes"); err == nil {
		t.Error("unknown feature column must fail")
	}
	if _, err := FromTable(tbl, []string{"FBG"}, "Nope"); err == nil {
		t.Error("unknown label column must fail")
	}
}

func TestCrossValidate(t *testing.T) {
	ds := diabetesDataset(200, 12)
	cm, err := CrossValidate(func() Classifier { return NewNaiveBayes() }, ds, 5, 13)
	if err != nil {
		t.Fatal(err)
	}
	if cm.Total != ds.Len() {
		t.Errorf("CV predicted %d of %d instances", cm.Total, ds.Len())
	}
	if cm.Accuracy() < 0.85 {
		t.Errorf("CV accuracy = %.3f", cm.Accuracy())
	}
	// Determinism.
	cm2, err := CrossValidate(func() Classifier { return NewNaiveBayes() }, ds, 5, 13)
	if err != nil {
		t.Fatal(err)
	}
	if cm.Correct != cm2.Correct {
		t.Error("cross-validation is not deterministic for a fixed seed")
	}
	if _, err := CrossValidate(func() Classifier { return NewNaiveBayes() }, ds, 1, 13); err == nil {
		t.Error("k=1 must fail")
	}
}

func TestConfusionMatrixMetrics(t *testing.T) {
	cm := NewConfusionMatrix()
	y, n := value.Str("Yes"), value.Str("No")
	// 3 TP, 1 FN, 1 FP, 5 TN for class Yes.
	for i := 0; i < 3; i++ {
		cm.Observe(y, y)
	}
	cm.Observe(y, n)
	cm.Observe(n, y)
	for i := 0; i < 5; i++ {
		cm.Observe(n, n)
	}
	if acc := cm.Accuracy(); acc != 0.8 {
		t.Errorf("accuracy = %g", acc)
	}
	if !strings.Contains(cm.String(), "accuracy") {
		t.Error("String missing accuracy line")
	}
	empty := NewConfusionMatrix()
	if empty.Accuracy() != 0 {
		t.Error("empty matrix accuracy must be 0")
	}
}

func TestStratifiedFoldsPreserveProportions(t *testing.T) {
	ds := diabetesDataset(300, 14)
	folds, err := StratifiedFolds(ds, 5, 15)
	if err != nil {
		t.Fatal(err)
	}
	total := 0
	for _, f := range folds {
		total += len(f)
	}
	if total != ds.Len() {
		t.Fatalf("folds cover %d of %d", total, ds.Len())
	}
	// Class balance per fold within 10 percentage points of global.
	global := classFraction(ds, nil, "diabetic")
	for fi, f := range folds {
		frac := classFraction(ds, f, "diabetic")
		if frac < global-0.1 || frac > global+0.1 {
			t.Errorf("fold %d class fraction %.2f vs global %.2f", fi, frac, global)
		}
	}
	if _, err := StratifiedFolds(ds, ds.Len()+1, 1); err == nil {
		t.Error("too many folds must fail")
	}
}

func classFraction(ds *Dataset, idx []int, class string) float64 {
	if idx == nil {
		idx = make([]int, ds.Len())
		for i := range idx {
			idx[i] = i
		}
	}
	n := 0
	for _, i := range idx {
		if ds.Y[i].Str() == class {
			n++
		}
	}
	return float64(n) / float64(len(idx))
}
