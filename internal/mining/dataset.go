// Package mining implements the Data Analytics feature of the DD-DGMS
// architecture: classification (Naive Bayes, ID3-style decision trees,
// k-nearest-neighbour and the AWSum weight-of-evidence classifier of the
// paper's ref [9]) and association-rule mining (Apriori), together with
// stratified cross-validation and confusion-matrix evaluation.
//
// In the architecture these algorithms run over cube subsets isolated with
// OLAP — "cubes of data that are of interest to the clinical scientist can
// be isolated using OLAP and further analysed using data mining
// algorithms" — so the entry point converts any storage.Table into a
// Dataset.
package mining

import (
	"fmt"

	"github.com/ddgms/ddgms/internal/storage"
	"github.com/ddgms/ddgms/internal/value"
)

// Dataset is a supervised learning problem: instances with named features
// and a class label.
type Dataset struct {
	Features []string
	X        [][]value.Value
	Y        []value.Value
}

// FromTable extracts a dataset from a table: featureCols become X, labelCol
// becomes Y. Rows with a missing label are dropped; missing feature values
// are kept as NA (classifiers handle them explicitly).
func FromTable(t *storage.Table, featureCols []string, labelCol string) (*Dataset, error) {
	for _, c := range append(append([]string{}, featureCols...), labelCol) {
		if _, ok := t.Schema().Lookup(c); !ok {
			return nil, fmt.Errorf("mining: unknown column %q", c)
		}
	}
	ds := &Dataset{Features: append([]string(nil), featureCols...)}
	for i := 0; i < t.Len(); i++ {
		y := t.MustValue(i, labelCol)
		if y.IsNA() {
			continue
		}
		x := make([]value.Value, len(featureCols))
		for j, c := range featureCols {
			x[j] = t.MustValue(i, c)
		}
		ds.X = append(ds.X, x)
		ds.Y = append(ds.Y, y)
	}
	return ds, nil
}

// Len returns the number of instances.
func (d *Dataset) Len() int { return len(d.X) }

// Classes returns the distinct labels in first-seen order.
func (d *Dataset) Classes() []value.Value {
	seen := make(map[value.Value]bool)
	var out []value.Value
	for _, y := range d.Y {
		if !seen[y] {
			seen[y] = true
			out = append(out, y)
		}
	}
	return out
}

// Subset returns a new dataset containing the instances at idx (indices
// may repeat; this supports bootstrap resampling).
func (d *Dataset) Subset(idx []int) *Dataset {
	out := &Dataset{Features: d.Features}
	for _, i := range idx {
		out.X = append(out.X, d.X[i])
		out.Y = append(out.Y, d.Y[i])
	}
	return out
}

// Classifier is a supervised model. Fit may be called once; Predict maps a
// feature vector to a class label.
type Classifier interface {
	Fit(*Dataset) error
	Predict(x []value.Value) (value.Value, error)
}

// validateFit rejects degenerate datasets up front so every classifier
// fails the same way.
func validateFit(d *Dataset) error {
	if d == nil || d.Len() == 0 {
		return fmt.Errorf("mining: empty dataset")
	}
	if len(d.Features) == 0 {
		return fmt.Errorf("mining: dataset has no features")
	}
	for i, x := range d.X {
		if len(x) != len(d.Features) {
			return fmt.Errorf("mining: instance %d has %d features, want %d", i, len(x), len(d.Features))
		}
	}
	return nil
}
