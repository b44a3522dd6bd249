package etl

import (
	"math"
	"testing"
	"testing/quick"

	"github.com/ddgms/ddgms/internal/value"
)

// fbgScheme is the paper's Table I scheme for fasting blood glucose.
func fbgScheme(t *testing.T) *ManualScheme {
	t.Helper()
	s, err := NewManualScheme("FBG", []float64{5.5, 6.1, 7},
		[]string{"very good", "high", "preDiabetic", "Diabetic"})
	if err != nil {
		t.Fatal(err)
	}
	return s
}

func TestManualSchemeTableI(t *testing.T) {
	s := fbgScheme(t)
	cases := []struct {
		fbg  float64
		want string
	}{
		{4.2, "very good"},
		{5.49, "very good"},
		{5.5, "high"},
		{6.0, "high"},
		{6.1, "preDiabetic"},
		{6.99, "preDiabetic"},
		{7.0, "Diabetic"},
		{11.3, "Diabetic"},
	}
	for _, c := range cases {
		got, err := s.Apply(value.Float(c.fbg))
		if err != nil {
			t.Fatalf("Apply(%g): %v", c.fbg, err)
		}
		if got.Str() != c.want {
			t.Errorf("FBG %g -> %q, want %q", c.fbg, got.Str(), c.want)
		}
	}
}

func TestManualSchemeAgeTableI(t *testing.T) {
	// Age: <40, 40-60, 60-80, >80.
	s := MustManualScheme("Age", []float64{40, 60, 80}, []string{"<40", "40-60", "60-80", ">80"})
	for _, c := range []struct {
		age  float64
		want string
	}{{39.9, "<40"}, {40, "40-60"}, {59, "40-60"}, {60, "60-80"}, {79.9, "60-80"}, {80, ">80"}, {93, ">80"}} {
		got, _ := s.Apply(value.Float(c.age))
		if got.Str() != c.want {
			t.Errorf("Age %g -> %q, want %q", c.age, got.Str(), c.want)
		}
	}
}

func TestManualSchemeNAAndErrors(t *testing.T) {
	s := fbgScheme(t)
	if v, err := s.Apply(value.NA()); err != nil || !v.IsNA() {
		t.Errorf("Apply(NA) = %v, %v", v, err)
	}
	if _, err := s.Apply(value.Str("six")); err == nil {
		t.Error("string input must error")
	}
	if v, err := s.Apply(value.Int(6)); err != nil || v.Str() != "high" {
		t.Errorf("int input should coerce: %v, %v", v, err)
	}
}

func TestNewManualSchemeValidation(t *testing.T) {
	if _, err := NewManualScheme("X", []float64{1, 2}, []string{"a", "b"}); err == nil {
		t.Error("label count mismatch must fail")
	}
	if _, err := NewManualScheme("X", []float64{2, 1}, []string{"a", "b", "c"}); err == nil {
		t.Error("non-increasing cuts must fail")
	}
	if _, err := NewManualScheme("X", []float64{1}, []string{"a", " "}); err == nil {
		t.Error("blank label must fail")
	}
	if got := fbgScheme(t).Bins(); len(got) != 4 || got[3] != "Diabetic" {
		t.Errorf("Bins = %v", got)
	}
}

func floats(xs ...float64) []value.Value {
	out := make([]value.Value, len(xs))
	for i, x := range xs {
		out[i] = value.Float(x)
	}
	return out
}

func TestFitEqualWidth(t *testing.T) {
	d, err := FitEqualWidth(floats(0, 10, 20, 30, 40), 4)
	if err != nil {
		t.Fatal(err)
	}
	if cuts := d.Cuts(); len(cuts) != 3 || cuts[0] != 10 || cuts[1] != 20 || cuts[2] != 30 {
		t.Errorf("cuts = %v", cuts)
	}
	if v, _ := d.Apply(value.Float(5)); v.Str() != "<10" {
		t.Errorf("Apply(5) = %v", v)
	}
	if v, _ := d.Apply(value.Float(35)); v.Str() != ">=30" {
		t.Errorf("Apply(35) = %v", v)
	}
	// Degenerate: constant column yields a single bin.
	d2, err := FitEqualWidth(floats(7, 7, 7), 3)
	if err != nil {
		t.Fatal(err)
	}
	if bins := d2.Bins(); len(bins) != 1 {
		t.Errorf("constant column bins = %v", bins)
	}
	if _, err := FitEqualWidth(nil, 3); err == nil {
		t.Error("no samples must fail")
	}
	if _, err := FitEqualWidth(floats(1), 0); err == nil {
		t.Error("k=0 must fail")
	}
}

func TestFitMDLPSeparatesClasses(t *testing.T) {
	// Perfectly separable: FBG < 7 healthy, >= 7 diabetic.
	var vals, labels []value.Value
	for i := 0; i < 50; i++ {
		f := 4.0 + float64(i%30)/10 // 4.0..6.9
		vals = append(vals, value.Float(f))
		labels = append(labels, value.Str("healthy"))
	}
	for i := 0; i < 50; i++ {
		f := 7.0 + float64(i%40)/10 // 7.0..10.9
		vals = append(vals, value.Float(f))
		labels = append(labels, value.Str("diabetic"))
	}
	d, err := FitMDLP(vals, labels)
	if err != nil {
		t.Fatal(err)
	}
	cuts := d.Cuts()
	if len(cuts) != 1 {
		t.Fatalf("cuts = %v, want exactly one", cuts)
	}
	if cuts[0] < 6.9 || cuts[0] > 7.0 {
		t.Errorf("cut at %g, want in (6.9, 7.0)", cuts[0])
	}
	// The resulting bins should have zero class entropy.
	ent, err := BinEntropy(d, vals, labels)
	if err != nil {
		t.Fatal(err)
	}
	if ent != 0 {
		t.Errorf("bin entropy = %g, want 0", ent)
	}
}

func TestFitMDLPRejectsNoise(t *testing.T) {
	// Labels independent of value: MDL should refuse to cut (or cut very
	// little).
	var vals, labels []value.Value
	for i := 0; i < 200; i++ {
		vals = append(vals, value.Float(float64(i)))
		lab := "a"
		if (i*2654435761)%7 < 3 { // deterministic pseudo-random labels
			lab = "b"
		}
		labels = append(labels, value.Str(lab))
	}
	d, err := FitMDLP(vals, labels)
	if err != nil {
		t.Fatal(err)
	}
	if n := len(d.Cuts()); n > 2 {
		t.Errorf("MDLP produced %d cuts on noise, want <= 2", n)
	}
}

func TestFitMDLPErrors(t *testing.T) {
	if _, err := FitMDLP(floats(1), nil); err == nil {
		t.Error("length mismatch must fail")
	}
	if _, err := FitMDLP([]value.Value{value.Str("x")}, []value.Value{value.Str("a")}); err == nil {
		t.Error("no numeric samples must fail")
	}
}

func TestFitChiMerge(t *testing.T) {
	// Two clearly separated classes.
	var vals, labels []value.Value
	for i := 0; i < 40; i++ {
		vals = append(vals, value.Float(float64(i)))
		lab := "low"
		if i >= 20 {
			lab = "high"
		}
		labels = append(labels, value.Str(lab))
	}
	// chi2 threshold 3.84 ≈ 95th percentile of chi2(1 dof).
	d, err := FitChiMerge(vals, labels, 3.84, 6)
	if err != nil {
		t.Fatal(err)
	}
	cuts := d.Cuts()
	if len(cuts) == 0 {
		t.Fatal("ChiMerge found no cuts on separable data")
	}
	// One cut should fall between 19 and 20.
	found := false
	for _, c := range cuts {
		if c > 19 && c < 20 {
			found = true
		}
	}
	if !found {
		t.Errorf("no cut in (19,20): %v", cuts)
	}
	if len(cuts)+1 > 6 {
		t.Errorf("maxBins violated: %d bins", len(cuts)+1)
	}
}

func TestFitChiMergeErrors(t *testing.T) {
	if _, err := FitChiMerge(floats(1), nil, 3.84, 4); err == nil {
		t.Error("length mismatch must fail")
	}
	if _, err := FitChiMerge(floats(1), []value.Value{value.Str("a")}, 3.84, 0); err == nil {
		t.Error("maxBins=0 must fail")
	}
	if _, err := FitChiMerge([]value.Value{value.NA()}, []value.Value{value.NA()}, 3.84, 4); err == nil {
		t.Error("no samples must fail")
	}
}

func TestBinEntropyComparesSchemes(t *testing.T) {
	// Clinical scheme aligned with the class boundary beats a misaligned
	// equal-width scheme.
	var vals, labels []value.Value
	for i := 0; i < 100; i++ {
		f := 4.0 + float64(i)/10
		vals = append(vals, value.Float(f))
		lab := "healthy"
		if f >= 7 {
			lab = "diabetic"
		}
		labels = append(labels, value.Str(lab))
	}
	clinical := MustManualScheme("FBG", []float64{7}, []string{"ok", "diabetic"})
	misaligned := MustManualScheme("FBG", []float64{9}, []string{"ok", "diabetic"})
	e1, err := BinEntropy(clinical, vals, labels)
	if err != nil {
		t.Fatal(err)
	}
	e2, err := BinEntropy(misaligned, vals, labels)
	if err != nil {
		t.Fatal(err)
	}
	if e1 >= e2 {
		t.Errorf("clinical entropy %g not better than misaligned %g", e1, e2)
	}
	if e1 != 0 {
		t.Errorf("aligned scheme entropy = %g, want 0", e1)
	}
}

// Property: every numeric value lands in exactly one bin, and bin index is
// monotone in the value.
func TestQuickManualSchemeTotalAndMonotone(t *testing.T) {
	s := MustManualScheme("X", []float64{-10, 0, 10}, []string{"a", "b", "c", "d"})
	order := map[string]int{"a": 0, "b": 1, "c": 2, "d": 3}
	f := func(x, y float64) bool {
		if math.IsNaN(x) || math.IsNaN(y) {
			return true
		}
		bx, err1 := s.Apply(value.Float(x))
		by, err2 := s.Apply(value.Float(y))
		if err1 != nil || err2 != nil {
			return false
		}
		if x <= y {
			return order[bx.Str()] <= order[by.Str()]
		}
		return order[bx.Str()] >= order[by.Str()]
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// Property: MDLP cut points always lie strictly inside the observed value
// range.
func TestQuickMDLPCutsInsideRange(t *testing.T) {
	f := func(raw []uint8) bool {
		if len(raw) < 4 {
			return true
		}
		var vals, labels []value.Value
		lo, hi := math.Inf(1), math.Inf(-1)
		for _, r := range raw {
			x := float64(r)
			vals = append(vals, value.Float(x))
			lab := "a"
			if r%2 == 0 {
				lab = "b"
			}
			labels = append(labels, value.Str(lab))
			if x < lo {
				lo = x
			}
			if x > hi {
				hi = x
			}
		}
		d, err := FitMDLP(vals, labels)
		if err != nil {
			return false
		}
		for _, c := range d.Cuts() {
			if c <= lo || c >= hi {
				return false
			}
		}
		return true
	}
	cfg := &quick.Config{MaxCount: 60}
	if err := quick.Check(f, cfg); err != nil {
		t.Error(err)
	}
}
