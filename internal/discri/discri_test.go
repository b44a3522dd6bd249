package discri

import (
	"math"
	"testing"

	"github.com/ddgms/ddgms/internal/storage"
)

func TestSchemaHas273Attributes(t *testing.T) {
	s := Schema()
	if s.Len() != TotalAttributes {
		t.Fatalf("schema has %d attributes, want %d", s.Len(), TotalAttributes)
	}
	// Key clinical columns all present.
	for _, name := range []string{
		"PatientID", "Gender", "Age", "VisitDate", "FBG", "DiagnosticHTYears",
		"LyingDBPAverage", "KneeReflexLeft", "EwingHandGrip", "DiabetesStatus",
		"FamilyHistDiabetes", "RRVariability",
	} {
		if _, ok := s.Lookup(name); !ok {
			t.Errorf("missing column %q", name)
		}
	}
	if s.Len()-len(coreFields()) <= 0 {
		t.Error("no panel attributes")
	}
}

func smallTable(t *testing.T) *storage.Table {
	t.Helper()
	cfg := DefaultConfig()
	cfg.Patients = 250
	tbl, err := Generate(cfg)
	if err != nil {
		t.Fatal(err)
	}
	return tbl
}

func column(t *testing.T, tbl *storage.Table, name string) storage.Column {
	t.Helper()
	col, err := tbl.Column(name)
	if err != nil {
		t.Fatal(err)
	}
	return col
}

func TestGenerateShape(t *testing.T) {
	cfg := DefaultConfig()
	tbl, err := Generate(cfg)
	if err != nil {
		t.Fatal(err)
	}
	// ~2500 attendances of ~900 patients.
	if tbl.Len() < 2000 || tbl.Len() > 3200 {
		t.Errorf("attendances = %d, want roughly 2500", tbl.Len())
	}
	patients := make(map[int64]bool)
	col := column(t, tbl, "PatientID")
	for i := 0; i < tbl.Len(); i++ {
		patients[col.Value(i).Int()] = true
	}
	if len(patients) != cfg.Patients {
		t.Errorf("patients = %d, want %d", len(patients), cfg.Patients)
	}
	if tbl.Schema().Len() != TotalAttributes {
		t.Errorf("columns = %d", tbl.Schema().Len())
	}
}

func TestGenerateDeterministic(t *testing.T) {
	cfg := DefaultConfig()
	cfg.Patients = 60
	a, err := Generate(cfg)
	if err != nil {
		t.Fatal(err)
	}
	b, err := Generate(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if a.Len() != b.Len() {
		t.Fatalf("lengths differ: %d vs %d", a.Len(), b.Len())
	}
	for i := 0; i < a.Len(); i += 37 { // spot-check rows
		ra, rb := a.Row(i), b.Row(i)
		for j := range ra {
			if !ra[j].Equal(rb[j]) {
				t.Fatalf("row %d col %d differ: %v vs %v", i, j, ra[j], rb[j])
			}
		}
	}
}

func TestGenerateValidation(t *testing.T) {
	cfg := DefaultConfig()
	cfg.Patients = 0
	if _, err := Generate(cfg); err == nil {
		t.Error("zero patients must fail")
	}
	cfg = DefaultConfig()
	cfg.RevisitProb = 1
	if _, err := Generate(cfg); err == nil {
		t.Error("revisit prob 1 must fail")
	}
	cfg = DefaultConfig()
	cfg.MissingRate = 0.9
	if _, err := Generate(cfg); err == nil {
		t.Error("excessive missing rate must fail")
	}
}

// countBy tallies diabetic patients (distinct) per (gender, ageBand).
func diabeticPatients(t *testing.T, tbl *storage.Table, gender string, loAge, hiAge float64) int {
	t.Helper()
	seen := make(map[int64]bool)
	for i := 0; i < tbl.Len(); i++ {
		if tbl.MustValue(i, "DiabetesStatus").String() != "Yes" {
			continue
		}
		if tbl.MustValue(i, "Gender").String() != gender {
			continue
		}
		age := tbl.MustValue(i, "Age")
		if age.IsNA() {
			continue
		}
		a := age.Float()
		if a < loAge || a >= hiAge {
			continue
		}
		seen[tbl.MustValue(i, "PatientID").Int()] = true
	}
	return len(seen)
}

func TestPlantedFig5Shape(t *testing.T) {
	tbl, err := Generate(DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	m7075 := diabeticPatients(t, tbl, "M", 70, 75)
	f7075 := diabeticPatients(t, tbl, "F", 70, 75)
	m7580 := diabeticPatients(t, tbl, "M", 75, 80)
	f7580 := diabeticPatients(t, tbl, "F", 75, 80)
	if m7075 <= f7075 {
		t.Errorf("70-75: males %d should dominate females %d", m7075, f7075)
	}
	if f7580 <= m7580 {
		t.Errorf("75-80: females %d should dominate males %d", f7580, m7580)
	}
	// Female diabetic share falls past 78.
	f7578 := diabeticPatients(t, tbl, "F", 75, 78)
	f7881 := diabeticPatients(t, tbl, "F", 78, 81)
	if f7881 >= f7578 {
		t.Errorf("female diabetics 78-81 (%d) should be fewer than 75-78 (%d)", f7881, f7578)
	}
}

func TestPlantedFig6HTDip(t *testing.T) {
	tbl, err := Generate(DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	// Within ages 70-80, the 5-10y HT duration bucket must be depleted
	// relative to its neighbours.
	bucket := func(loAge, hiAge, loDur, hiDur float64) int {
		n := 0
		for i := 0; i < tbl.Len(); i++ {
			age := tbl.MustValue(i, "Age")
			dur := tbl.MustValue(i, "DiagnosticHTYears")
			if age.IsNA() || dur.IsNA() {
				continue
			}
			if age.Float() >= loAge && age.Float() < hiAge &&
				dur.Float() >= loDur && dur.Float() < hiDur {
				n++
			}
		}
		return n
	}
	// Buckets have different widths, so compare per-year densities.
	dip := float64(bucket(70, 80, 5, 10)) / 5
	under := float64(bucket(70, 80, 2, 5)) / 3
	over := float64(bucket(70, 80, 10, 20)) / 10
	if dip >= under || dip >= over {
		t.Errorf("5-10y density (%.1f/y) should dip below 2-5y (%.1f/y) and 10-20y (%.1f/y)", dip, under, over)
	}
	// Outside 70-80 there is no dip of that severity: compare ratios.
	dipOut := bucket(55, 65, 5, 10)
	overOut := bucket(55, 65, 10, 20)
	if dipOut*2 < overOut {
		t.Logf("55-65 buckets: 5-10y=%d 10-20y=%d (informational)", dipOut, overOut)
	}
}

func TestPlantedReflexGlucoseInteraction(t *testing.T) {
	tbl, err := Generate(DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	// Among mid-range glucose visits (FBG 5.5-7), absent knee reflex must
	// be far more common for diabetics/progressors than healthy controls.
	count := func(reflexAbsent bool, diabetic string) int {
		n := 0
		for i := 0; i < tbl.Len(); i++ {
			fbg := tbl.MustValue(i, "FBG")
			if fbg.IsNA() || fbg.Float() < 5.5 || fbg.Float() >= 7 {
				continue
			}
			refl := tbl.MustValue(i, "KneeReflexLeft")
			if refl.IsNA() {
				continue
			}
			if (refl.Str() == "absent") != reflexAbsent {
				continue
			}
			if tbl.MustValue(i, "DiabetesStatus").String() != diabetic {
				continue
			}
			n++
		}
		return n
	}
	absYes, absNo := count(true, "Yes"), count(true, "No")
	presYes, presNo := count(false, "Yes"), count(false, "No")
	if absYes+absNo == 0 || presYes+presNo == 0 {
		t.Fatal("no mid-range glucose visits")
	}
	pAbs := float64(absYes) / float64(absYes+absNo)
	pPres := float64(presYes) / float64(presYes+presNo)
	if pAbs < 2*pPres {
		t.Errorf("P(diabetes | mid FBG, absent reflex) = %.2f not >> P(... present) = %.2f", pAbs, pPres)
	}
}

func TestPlantedHandGripMissingForElderly(t *testing.T) {
	tbl, err := Generate(DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	missing := func(loAge, hiAge float64) (na, total int) {
		for i := 0; i < tbl.Len(); i++ {
			age := tbl.MustValue(i, "Age")
			if age.IsNA() || age.Float() < loAge || age.Float() >= hiAge {
				continue
			}
			total++
			if tbl.MustValue(i, "EwingHandGrip").IsNA() {
				na++
			}
		}
		return na, total
	}
	naOld, totalOld := missing(75, 120)
	naYoung, totalYoung := missing(25, 60)
	if totalOld == 0 || totalYoung == 0 {
		t.Fatal("empty age strata")
	}
	rOld := float64(naOld) / float64(totalOld)
	rYoung := float64(naYoung) / float64(totalYoung)
	if rOld < 0.5 {
		t.Errorf("elderly hand-grip missingness = %.2f, want >= 0.5", rOld)
	}
	if rYoung > 0.2 {
		t.Errorf("young hand-grip missingness = %.2f, want <= 0.2", rYoung)
	}
}

func TestFamilyHistoryCorrelatesWithDiabetes(t *testing.T) {
	tbl := smallTable(t)
	count := func(famHist, dia string) int {
		n := 0
		for i := 0; i < tbl.Len(); i++ {
			f := tbl.MustValue(i, "FamilyHistDiabetes")
			if f.IsNA() || f.Str() != famHist {
				continue
			}
			if tbl.MustValue(i, "DiabetesStatus").String() != dia {
				continue
			}
			n++
		}
		return n
	}
	fyDy, fyDn := count("Yes", "Yes"), count("Yes", "No")
	fnDy, fnDn := count("No", "Yes"), count("No", "No")
	if fyDy+fyDn == 0 || fnDy+fnDn == 0 {
		t.Fatal("empty strata")
	}
	pWith := float64(fyDy) / float64(fyDy+fyDn)
	pWithout := float64(fnDy) / float64(fnDy+fnDn)
	if pWith <= pWithout {
		t.Errorf("P(diabetes|famhist) = %.2f not above %.2f", pWith, pWithout)
	}
}

func TestNoMissingKeys(t *testing.T) {
	tbl := smallTable(t)
	for _, key := range []string{"PatientID", "Gender", "VisitDate", "Age", "DiabetesStatus"} {
		col := column(t, tbl, key)
		for i := 0; i < col.Len(); i++ {
			if col.IsNA(i) {
				t.Fatalf("key column %q has NA at row %d", key, i)
			}
		}
	}
}

func TestValueRangesPlausible(t *testing.T) {
	tbl := smallTable(t)
	ranges := map[string][2]float64{
		"FBG":             {3.5, 14.5},
		"HbA1c":           {3.5, 12.5},
		"LyingSBPAverage": {80, 235},
		"LyingDBPAverage": {40, 135},
		"HeartRate":       {40, 125},
		"Age":             {24, 101},
	}
	for col, r := range ranges {
		c := column(t, tbl, col)
		lo, hi, n := math.Inf(1), math.Inf(-1), 0
		for i := 0; i < c.Len(); i++ {
			if f, ok := c.Value(i).AsFloat(); ok {
				lo, hi, n = math.Min(lo, f), math.Max(hi, f), n+1
			}
		}
		if n == 0 || lo < r[0] || hi > r[1] {
			t.Errorf("%s range [%g,%g] over %d values outside plausible [%g,%g]", col, lo, hi, n, r[0], r[1])
		}
	}
}
