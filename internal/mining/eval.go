package mining

import (
	"fmt"
	"math/rand"
	"sort"
	"strings"

	"github.com/ddgms/ddgms/internal/value"
)

// ConfusionMatrix tabulates predictions against true labels.
type ConfusionMatrix struct {
	Classes []value.Value
	Counts  map[value.Value]map[value.Value]int // true -> predicted -> n
	Total   int
	Correct int
}

// NewConfusionMatrix creates an empty matrix.
func NewConfusionMatrix() *ConfusionMatrix {
	return &ConfusionMatrix{Counts: make(map[value.Value]map[value.Value]int)}
}

// Observe records one (true, predicted) pair.
func (cm *ConfusionMatrix) Observe(truth, pred value.Value) {
	m := cm.Counts[truth]
	if m == nil {
		m = make(map[value.Value]int)
		cm.Counts[truth] = m
		cm.Classes = append(cm.Classes, truth)
	}
	m[pred]++
	cm.Total++
	if truth.Equal(pred) {
		cm.Correct++
	}
}

// Accuracy returns the fraction of correct predictions.
func (cm *ConfusionMatrix) Accuracy() float64 {
	if cm.Total == 0 {
		return 0
	}
	return float64(cm.Correct) / float64(cm.Total)
}

// String renders the matrix with classes sorted.
func (cm *ConfusionMatrix) String() string {
	classes := append([]value.Value(nil), cm.Classes...)
	sort.Slice(classes, func(a, b int) bool { return classes[a].Less(classes[b]) })
	var sb strings.Builder
	fmt.Fprintf(&sb, "%-12s", "true\\pred")
	for _, c := range classes {
		fmt.Fprintf(&sb, "%10s", c.String())
	}
	sb.WriteByte('\n')
	for _, truth := range classes {
		fmt.Fprintf(&sb, "%-12s", truth.String())
		for _, pred := range classes {
			fmt.Fprintf(&sb, "%10d", cm.Counts[truth][pred])
		}
		sb.WriteByte('\n')
	}
	fmt.Fprintf(&sb, "accuracy: %.4f (%d/%d)\n", cm.Accuracy(), cm.Correct, cm.Total)
	return sb.String()
}

// StratifiedFolds partitions instance indices into k folds preserving
// class proportions, deterministically for a given seed.
func StratifiedFolds(d *Dataset, k int, seed int64) ([][]int, error) {
	if k < 2 {
		return nil, fmt.Errorf("mining: need k >= 2 folds, got %d", k)
	}
	if d.Len() < k {
		return nil, fmt.Errorf("mining: %d instances cannot fill %d folds", d.Len(), k)
	}
	rng := rand.New(rand.NewSource(seed))
	byClass := make(map[value.Value][]int)
	for i, y := range d.Y {
		byClass[y] = append(byClass[y], i)
	}
	classes := d.Classes()
	folds := make([][]int, k)
	for _, c := range classes {
		idx := byClass[c]
		rng.Shuffle(len(idx), func(a, b int) { idx[a], idx[b] = idx[b], idx[a] })
		for j, i := range idx {
			folds[j%k] = append(folds[j%k], i)
		}
	}
	return folds, nil
}

// CrossValidate runs stratified k-fold cross-validation, constructing a
// fresh classifier per fold with factory, and returns the pooled confusion
// matrix.
func CrossValidate(factory func() Classifier, d *Dataset, k int, seed int64) (*ConfusionMatrix, error) {
	folds, err := StratifiedFolds(d, k, seed)
	if err != nil {
		return nil, err
	}
	cm := NewConfusionMatrix()
	for f := 0; f < k; f++ {
		var trainIdx []int
		for g := 0; g < k; g++ {
			if g != f {
				trainIdx = append(trainIdx, folds[g]...)
			}
		}
		clf := factory()
		if err := clf.Fit(d.Subset(trainIdx)); err != nil {
			return nil, fmt.Errorf("mining: fold %d fit: %w", f, err)
		}
		for _, i := range folds[f] {
			pred, err := clf.Predict(d.X[i])
			if err != nil {
				return nil, fmt.Errorf("mining: fold %d predict: %w", f, err)
			}
			cm.Observe(d.Y[i], pred)
		}
	}
	return cm, nil
}
