// Package etl implements the Data Transformation layer of the DD-DGMS
// architecture (paper §IV): cleaning of missing and erroneous values, the
// three clinically specific integration issues — discretisation, temporal
// abstraction and cardinality — and a pipeline that applies them to a flat
// table before warehouse loading.
package etl

import (
	"fmt"
	"math"
	"sort"
	"strings"

	"github.com/ddgms/ddgms/internal/value"
)

// Discretizer converts a continuous clinical measure into a named interval
// label. Implementations are fitted (or defined) once and applied per
// value.
type Discretizer interface {
	// Apply maps a value to its bin label. NA maps to NA; non-numeric
	// values return an error.
	Apply(v value.Value) (value.Value, error)
	// Bins returns the ordered bin labels the discretizer can produce.
	Bins() []string
}

// ManualScheme is a clinician-specified discretisation: ordered cut points
// and one label per resulting interval. With cuts c1 < c2 < ... < ck the
// intervals are (-inf,c1), [c1,c2), ..., [ck,+inf) — k+1 labels.
//
// This is the mechanism behind the paper's Table I: e.g. FBG with cuts
// 5.5, 6.1, 7 and labels "very good", "high", "preDiabetic", "Diabetic".
type ManualScheme struct {
	Attribute string
	Cuts      []float64
	Labels    []string
}

// NewManualScheme validates and returns a clinical discretisation scheme.
func NewManualScheme(attribute string, cuts []float64, labels []string) (*ManualScheme, error) {
	if len(labels) != len(cuts)+1 {
		return nil, fmt.Errorf("etl: scheme %q: %d cuts need %d labels, got %d",
			attribute, len(cuts), len(cuts)+1, len(labels))
	}
	for i := 1; i < len(cuts); i++ {
		if cuts[i] <= cuts[i-1] {
			return nil, fmt.Errorf("etl: scheme %q: cuts not strictly increasing at %d", attribute, i)
		}
	}
	for i, l := range labels {
		if strings.TrimSpace(l) == "" {
			return nil, fmt.Errorf("etl: scheme %q: empty label %d", attribute, i)
		}
	}
	return &ManualScheme{Attribute: attribute, Cuts: cuts, Labels: labels}, nil
}

// MustManualScheme is like NewManualScheme but panics on error; for
// statically known clinical schemes.
func MustManualScheme(attribute string, cuts []float64, labels []string) *ManualScheme {
	s, err := NewManualScheme(attribute, cuts, labels)
	if err != nil {
		panic(err)
	}
	return s
}

// Apply implements Discretizer.
func (s *ManualScheme) Apply(v value.Value) (value.Value, error) {
	if v.IsNA() {
		return value.NA(), nil
	}
	f, ok := v.AsFloat()
	if !ok {
		return value.NA(), fmt.Errorf("etl: scheme %q: cannot discretise %v value", s.Attribute, v.Kind())
	}
	return value.Str(s.Labels[binOf(f, s.Cuts)]), nil
}

// Bins implements Discretizer.
func (s *ManualScheme) Bins() []string { return append([]string(nil), s.Labels...) }

// binOf returns the interval index of f against sorted cuts, with
// half-open [cut, next) semantics.
func binOf(f float64, cuts []float64) int {
	return sort.SearchFloat64s(cuts, math.Nextafter(f, math.Inf(1)))
}

// cutScheme is the shared implementation behind the algorithmic
// discretizers: cut points found by Fit plus generated range labels.
type cutScheme struct {
	cuts   []float64
	labels []string
}

func (c *cutScheme) Apply(v value.Value) (value.Value, error) {
	if v.IsNA() {
		return value.NA(), nil
	}
	f, ok := v.AsFloat()
	if !ok {
		return value.NA(), fmt.Errorf("etl: cannot discretise %v value", v.Kind())
	}
	return value.Str(c.labels[binOf(f, c.cuts)]), nil
}

func (c *cutScheme) Bins() []string { return append([]string(nil), c.labels...) }

// Cuts exposes the fitted cut points (for reporting and tests).
func (c *cutScheme) Cuts() []float64 { return append([]float64(nil), c.cuts...) }

func rangeLabels(cuts []float64) []string {
	if len(cuts) == 0 {
		return []string{"(-inf,+inf)"}
	}
	labels := make([]string, 0, len(cuts)+1)
	labels = append(labels, fmt.Sprintf("<%g", cuts[0]))
	for i := 1; i < len(cuts); i++ {
		labels = append(labels, fmt.Sprintf("%g-%g", cuts[i-1], cuts[i]))
	}
	labels = append(labels, fmt.Sprintf(">=%g", cuts[len(cuts)-1]))
	return labels
}

// numericSamples extracts the non-NA numeric payloads of vals.
func numericSamples(vals []value.Value) []float64 {
	out := make([]float64, 0, len(vals))
	for _, v := range vals {
		if f, ok := v.AsFloat(); ok {
			out = append(out, f)
		}
	}
	return out
}

// FitEqualWidth fits an unsupervised equal-width discretizer with k bins
// over the observed range of vals. This is one of the top-down techniques
// of the paper's ref [17] used when no clinical scheme exists.
func FitEqualWidth(vals []value.Value, k int) (*cutScheme, error) {
	if k < 1 {
		return nil, fmt.Errorf("etl: equal-width needs k >= 1, got %d", k)
	}
	xs := numericSamples(vals)
	if len(xs) == 0 {
		return nil, fmt.Errorf("etl: equal-width: no numeric samples")
	}
	lo, hi := xs[0], xs[0]
	for _, x := range xs {
		if x < lo {
			lo = x
		}
		if x > hi {
			hi = x
		}
	}
	var cuts []float64
	if hi > lo {
		w := (hi - lo) / float64(k)
		for i := 1; i < k; i++ {
			cuts = append(cuts, lo+float64(i)*w)
		}
	}
	return &cutScheme{cuts: cuts, labels: rangeLabels(cuts)}, nil
}

// FitMDLP fits a supervised entropy-based discretizer (Fayyad & Irani's
// minimum description length principle): cut points are chosen recursively
// to maximise class-label information gain, stopping when the MDL criterion
// rejects further splits. This is the "top-down" supervised technique of
// ref [17].
func FitMDLP(vals []value.Value, labels []value.Value) (*cutScheme, error) {
	if len(vals) != len(labels) {
		return nil, fmt.Errorf("etl: MDLP: %d values vs %d labels", len(vals), len(labels))
	}
	type sample struct {
		x float64
		y value.Value
	}
	var xs []sample
	for i, v := range vals {
		f, ok := v.AsFloat()
		if !ok || labels[i].IsNA() {
			continue
		}
		xs = append(xs, sample{f, labels[i]})
	}
	if len(xs) == 0 {
		return nil, fmt.Errorf("etl: MDLP: no labelled numeric samples")
	}
	sort.Slice(xs, func(a, b int) bool { return xs[a].x < xs[b].x })

	classCounts := func(lo, hi int) map[value.Value]int {
		m := make(map[value.Value]int)
		for i := lo; i < hi; i++ {
			m[xs[i].y]++
		}
		return m
	}
	entropyOf := func(m map[value.Value]int, n int) float64 {
		if n == 0 {
			return 0
		}
		var e float64
		for _, c := range m {
			p := float64(c) / float64(n)
			e -= p * math.Log2(p)
		}
		return e
	}

	var cuts []float64
	var split func(lo, hi int)
	split = func(lo, hi int) {
		n := hi - lo
		if n < 2 {
			return
		}
		whole := classCounts(lo, hi)
		entWhole := entropyOf(whole, n)
		if len(whole) < 2 {
			return
		}
		bestGain, bestIdx := -1.0, -1
		var bestEntL, bestEntR float64
		var bestKL, bestKR int
		left := make(map[value.Value]int)
		nl := 0
		for i := lo; i < hi-1; i++ {
			left[xs[i].y]++
			nl++
			if xs[i+1].x == xs[i].x {
				continue // cannot cut between equal values
			}
			right := make(map[value.Value]int)
			for c, total := range whole {
				if r := total - left[c]; r > 0 {
					right[c] = r
				}
			}
			nr := n - nl
			entL, entR := entropyOf(left, nl), entropyOf(right, nr)
			gain := entWhole - (float64(nl)/float64(n))*entL - (float64(nr)/float64(n))*entR
			if gain > bestGain {
				bestGain, bestIdx = gain, i
				bestEntL, bestEntR = entL, entR
				bestKL, bestKR = len(left), len(right)
			}
		}
		if bestIdx < 0 {
			return
		}
		// MDL stopping criterion.
		k := float64(len(whole))
		delta := math.Log2(math.Pow(3, k)-2) - (k*entWhole - float64(bestKL)*bestEntL - float64(bestKR)*bestEntR)
		threshold := (math.Log2(float64(n-1)) + delta) / float64(n)
		if bestGain <= threshold {
			return
		}
		cut := (xs[bestIdx].x + xs[bestIdx+1].x) / 2
		cuts = append(cuts, cut)
		split(lo, bestIdx+1)
		split(bestIdx+1, hi)
	}
	split(0, len(xs))
	sort.Float64s(cuts)
	return &cutScheme{cuts: cuts, labels: rangeLabels(cuts)}, nil
}

// FitChiMerge fits a supervised bottom-up discretizer (Kerber's ChiMerge):
// every distinct value starts as its own interval and adjacent intervals
// with the lowest chi-square statistic are merged until the minimum
// statistic exceeds the threshold or maxBins is reached. This is the
// "bottom-up" supervised technique of ref [17].
func FitChiMerge(vals []value.Value, labels []value.Value, threshold float64, maxBins int) (*cutScheme, error) {
	if len(vals) != len(labels) {
		return nil, fmt.Errorf("etl: ChiMerge: %d values vs %d labels", len(vals), len(labels))
	}
	if maxBins < 1 {
		return nil, fmt.Errorf("etl: ChiMerge: maxBins must be >= 1")
	}
	// Gather per-distinct-value class counts.
	classes := make(map[value.Value]int)
	byVal := make(map[float64]map[value.Value]int)
	for i, v := range vals {
		f, ok := v.AsFloat()
		if !ok || labels[i].IsNA() {
			continue
		}
		if _, seen := classes[labels[i]]; !seen {
			classes[labels[i]] = len(classes)
		}
		m := byVal[f]
		if m == nil {
			m = make(map[value.Value]int)
			byVal[f] = m
		}
		m[labels[i]]++
	}
	if len(byVal) == 0 {
		return nil, fmt.Errorf("etl: ChiMerge: no labelled numeric samples")
	}
	type interval struct {
		lo, hi float64
		counts []int
	}
	xs := make([]float64, 0, len(byVal))
	for x := range byVal {
		xs = append(xs, x)
	}
	sort.Float64s(xs)
	ivals := make([]interval, len(xs))
	for i, x := range xs {
		counts := make([]int, len(classes))
		for c, n := range byVal[x] {
			counts[classes[c]] = n
		}
		ivals[i] = interval{lo: x, hi: x, counts: counts}
	}

	chi2 := func(a, b interval) float64 {
		k := len(a.counts)
		rowA, rowB, col := 0, 0, make([]int, k)
		for j := 0; j < k; j++ {
			rowA += a.counts[j]
			rowB += b.counts[j]
			col[j] = a.counts[j] + b.counts[j]
		}
		total := rowA + rowB
		var x2 float64
		for j := 0; j < k; j++ {
			for _, rc := range []struct {
				row int
				obs int
			}{{rowA, a.counts[j]}, {rowB, b.counts[j]}} {
				exp := float64(rc.row) * float64(col[j]) / float64(total)
				if exp == 0 {
					continue
				}
				d := float64(rc.obs) - exp
				x2 += d * d / exp
			}
		}
		return x2
	}

	// Merge the adjacent pair with the lowest chi-square while either the
	// statistic is below the threshold (the classes of the two intervals
	// are indistinguishable) or we still exceed the bin budget.
	for len(ivals) > 1 {
		best, bestIdx := math.Inf(1), -1
		for i := 0; i+1 < len(ivals); i++ {
			if x2 := chi2(ivals[i], ivals[i+1]); x2 < best {
				best, bestIdx = x2, i
			}
		}
		if best > threshold && len(ivals) <= maxBins {
			break
		}
		merged := interval{lo: ivals[bestIdx].lo, hi: ivals[bestIdx+1].hi, counts: make([]int, len(classes))}
		for j := range merged.counts {
			merged.counts[j] = ivals[bestIdx].counts[j] + ivals[bestIdx+1].counts[j]
		}
		ivals = append(ivals[:bestIdx], append([]interval{merged}, ivals[bestIdx+2:]...)...)
	}

	cuts := make([]float64, 0, len(ivals)-1)
	for i := 1; i < len(ivals); i++ {
		cuts = append(cuts, (ivals[i-1].hi+ivals[i].lo)/2)
	}
	return &cutScheme{cuts: cuts, labels: rangeLabels(cuts)}, nil
}

// BinEntropy computes the class-label entropy (bits) remaining after
// discretising vals with d: the weighted average label entropy within each
// bin. Lower is better; it is the metric used by the Table I harness to
// compare clinical schemes against algorithmic ones.
func BinEntropy(d Discretizer, vals []value.Value, labels []value.Value) (float64, error) {
	if len(vals) != len(labels) {
		return 0, fmt.Errorf("etl: BinEntropy: %d values vs %d labels", len(vals), len(labels))
	}
	binClass := make(map[string]map[value.Value]int)
	binTotal := make(map[string]int)
	n := 0
	for i, v := range vals {
		if v.IsNA() || labels[i].IsNA() {
			continue
		}
		b, err := d.Apply(v)
		if err != nil {
			return 0, err
		}
		key := b.String()
		m := binClass[key]
		if m == nil {
			m = make(map[value.Value]int)
			binClass[key] = m
		}
		m[labels[i]]++
		binTotal[key]++
		n++
	}
	if n == 0 {
		return 0, nil
	}
	var ent float64
	for key, m := range binClass {
		nb := binTotal[key]
		var e float64
		for _, c := range m {
			p := float64(c) / float64(nb)
			e -= p * math.Log2(p)
		}
		ent += float64(nb) / float64(n) * e
	}
	return ent, nil
}
