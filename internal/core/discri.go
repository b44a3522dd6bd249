package core

import (
	"fmt"

	"github.com/ddgms/ddgms/internal/cube"
	"github.com/ddgms/ddgms/internal/discri"
	"github.com/ddgms/ddgms/internal/etl"
	"github.com/ddgms/ddgms/internal/star"
	"github.com/ddgms/ddgms/internal/storage"
	"github.com/ddgms/ddgms/internal/value"
)

// This file is the canonical wiring of the paper's prototypical trial:
// the DiScRi flat table through the Table I clinical discretisation
// schemes into the Fig 3 dimensional model. The figure harness, the
// examples and the benchmarks all build their platform here so they agree
// on every detail.

// The paper's Table I clinical discretisation schemes.
var (
	// AgeScheme: <40, 40-60, 60-80, >80.
	AgeScheme = etl.MustManualScheme("Age",
		[]float64{40, 60, 80},
		[]string{"<40", "40-60", "60-80", ">80"})

	// HTYearsScheme: <2, 2-5, 5-10, 10-20, >20 years since hypertension
	// diagnosis.
	HTYearsScheme = etl.MustManualScheme("DiagnosticHTYears",
		[]float64{2, 5, 10, 20},
		[]string{"<2", "2-5", "5-10", "10-20", ">20"})

	// FBGScheme: <5.5 very good, 5.5-6.1 high, 6.1-7 preDiabetic, >=7
	// Diabetic.
	FBGScheme = etl.MustManualScheme("FBG",
		[]float64{5.5, 6.1, 7},
		[]string{"very good", "high", "preDiabetic", "Diabetic"})

	// DBPScheme: <60 low, 60-80 normal, 80-90 high normal, >90
	// hypertension (lying diastolic blood pressure).
	DBPScheme = etl.MustManualScheme("LyingDBPAverage",
		[]float64{60, 80, 90},
		[]string{"low", "normal", "high normal", "hypertension"})

	// RRVarScheme grades heart-rate variability (low variability marks
	// cardiac autonomic neuropathy). No clinical scheme appears in the
	// paper; this one follows the generator's design ranges.
	RRVarScheme = etl.MustManualScheme("RRVariability",
		[]float64{15, 30},
		[]string{"low", "reduced", "normal"})
)

// bandScheme builds an equal-width band scheme (e.g. 10-year age bands)
// with "lo-hi" labels.
func bandScheme(attr string, lo, hi, step float64) *etl.ManualScheme {
	var cuts []float64
	labels := []string{fmt.Sprintf("<%g", lo)}
	for x := lo; x < hi; x += step {
		cuts = append(cuts, x)
		labels = append(labels, fmt.Sprintf("%g-%g", x, x+step))
	}
	cuts = append(cuts, hi)
	labels = append(labels, fmt.Sprintf(">=%g", hi))
	return etl.MustManualScheme(attr, cuts, labels)
}

// Age band schemes for the Fig 5 / Fig 6 drill-downs.
var (
	AgeBand10Scheme = bandScheme("Age", 30, 90, 10)
	AgeBand5Scheme  = bandScheme("Age", 30, 90, 5)
)

// Attribute references used by the figures and examples.
var (
	RefGender     = cube.AttrRef{Dim: "PersonalInformation", Attr: "Gender"}
	RefAgeBand10  = cube.AttrRef{Dim: "PersonalInformation", Attr: "AgeBand10"}
	RefAgeBand5   = cube.AttrRef{Dim: "PersonalInformation", Attr: "AgeBand5"}
	RefAgeBandTbl = cube.AttrRef{Dim: "PersonalInformation", Attr: "AgeBandClinical"}
	RefFamHist    = cube.AttrRef{Dim: "PersonalInformation", Attr: "FamilyHistDiabetes"}
	RefDiabetes   = cube.AttrRef{Dim: "MedicalCondition", Attr: "DiabetesStatus"}
	RefHTStatus   = cube.AttrRef{Dim: "MedicalCondition", Attr: "HypertensionStatus"}
	RefHTYears    = cube.AttrRef{Dim: "MedicalCondition", Attr: "HTYearsBand"}
	RefFBGBand    = cube.AttrRef{Dim: "FastingBloods", Attr: "FBGBand"}
	RefReflex     = cube.AttrRef{Dim: "LimbHealth", Attr: "ReflexStatus"}
	RefDBPBand    = cube.AttrRef{Dim: "BloodPressure", Attr: "DBPBand"}
	RefRRVarBand  = cube.AttrRef{Dim: "ECG", Attr: "RRVarBand"}
	RefExercise   = cube.AttrRef{Dim: "ExerciseRoutine", Attr: "ExerciseFrequency"}
	RefPatientID  = cube.AttrRef{Dim: "Cardinality", Attr: "PatientID"}
	RefVisitNo    = cube.AttrRef{Dim: "Cardinality", Attr: "VisitNo"}
)

// PatientCountMeasure counts distinct patients — the measure behind the
// paper's patient-level charts.
func PatientCountMeasure() cube.MeasureRef {
	ref := RefPatientID
	return cube.MeasureRef{Agg: storage.DistinctAgg, Attr: &ref}
}

// NewDiScRiPipeline assembles the trial's ETL pipeline: erroneous-value
// fences, the Table I clinical discretisations (as companion columns),
// the age-band drill-down levels, a combined reflex status, and the
// cardinality (visit number) assignment.
func NewDiScRiPipeline() *etl.Pipeline {
	var p etl.Pipeline
	p.AddRangeRule("FBG", 2, 30).
		AddRangeRule("LyingSBPAverage", 60, 260).
		AddRangeRule("LyingDBPAverage", 30, 150).
		AddRangeRule("Age", 0, 110)
	p.AddDiscretize("Age", "AgeBandClinical", AgeScheme).
		AddDiscretize("Age", "AgeBand10", AgeBand10Scheme).
		AddDiscretize("Age", "AgeBand5", AgeBand5Scheme).
		AddDiscretize("DiagnosticHTYears", "HTYearsBand", HTYearsScheme).
		AddDiscretize("FBG", "FBGBand", FBGScheme).
		AddDiscretize("LyingDBPAverage", "DBPBand", DBPScheme).
		AddDiscretize("RRVariability", "RRVarBand", RRVarScheme)
	// Combined reflex status: absent if any of the four reflex tests is
	// absent — the form the reflex × glucose finding uses.
	p.Add(etl.Step{
		Name:   "derive[ReflexStatus]",
		Output: storage.Field{Name: "ReflexStatus", Kind: value.StringKind},
		Inputs: []string{"KneeReflexLeft", "KneeReflexRight", "AnkleReflexLeft", "AnkleReflexRight"},
		Derive: func(n int, in []storage.Column, status storage.Column) error {
			for i := 0; i < n; i++ {
				anyAbsent, anySeen := false, false
				for _, c := range in {
					v := c.Value(i)
					if v.IsNA() {
						continue
					}
					anySeen = true
					if v.Str() == "absent" {
						anyAbsent = true
					}
				}
				s := value.NA()
				switch {
				case anyAbsent:
					s = value.Str("absent")
				case anySeen:
					s = value.Str("present")
				}
				if err := status.Append(s); err != nil {
					return err
				}
			}
			return nil
		},
	})
	// Temporal abstraction: each visit's fasting-glucose trend since the
	// previous visit (≈0.55 mmol/L per year counts as movement).
	p.AddTrend("PatientID", "VisitDate", "FBG", "FBGTrend", 0.0015)
	p.AddCardinality("PatientID", "VisitDate", "VisitNo")
	return &p
}

// NewDiScRiBuilder declares the Fig 3 dimensional model over the
// transformed flat table: the eight dimensions around the Medical
// Measures fact.
func NewDiScRiBuilder() *star.Builder {
	str := func(name string) storage.Field { return storage.Field{Name: name, Kind: value.StringKind} }
	return star.NewBuilder("MedicalMeasures").
		Dimension("PersonalInformation",
			[]storage.Field{str("Gender"), str("AgeBand10"), str("AgeBand5"), str("AgeBandClinical"),
				str("FamilyHistDiabetes"), str("Education"), str("SmokingStatus")},
			[]string{"Gender", "AgeBand10", "AgeBand5", "AgeBandClinical",
				"FamilyHistDiabetes", "Education", "SmokingStatus"},
			star.Hierarchy{Name: "Age", Levels: []string{"AgeBand10", "AgeBand5"}}).
		Dimension("MedicalCondition",
			[]storage.Field{str("DiabetesStatus"), str("DiabetesType"), str("HypertensionStatus"),
				str("HTYearsBand"), str("NeuropathyDiagnosed")},
			[]string{"DiabetesStatus", "DiabetesType", "HypertensionStatus",
				"HTYearsBand", "NeuropathyDiagnosed"}).
		Dimension("FastingBloods",
			[]storage.Field{str("FBGBand"), str("FBGTrend")},
			[]string{"FBGBand", "FBGTrend"}).
		Dimension("LimbHealth",
			[]storage.Field{str("ReflexStatus"), str("VibrationSense")},
			[]string{"ReflexStatus", "VibrationSense"}).
		Dimension("ExerciseRoutine",
			[]storage.Field{str("ExerciseFrequency"), str("ExerciseType")},
			[]string{"ExerciseFrequency", "ExerciseType"}).
		Dimension("BloodPressure",
			[]storage.Field{str("DBPBand")},
			[]string{"DBPBand"}).
		Dimension("ECG",
			[]storage.Field{str("RRVarBand")},
			[]string{"RRVarBand"}).
		Dimension("Cardinality",
			[]storage.Field{{Name: "PatientID", Kind: value.IntKind}, {Name: "VisitNo", Kind: value.IntKind}},
			[]string{"PatientID", "VisitNo"}).
		Measure(storage.Field{Name: "FBG", Kind: value.FloatKind}, "FBG").
		Measure(storage.Field{Name: "HbA1c", Kind: value.FloatKind}, "HbA1c").
		Measure(storage.Field{Name: "LyingSBPAverage", Kind: value.FloatKind}, "LyingSBPAverage").
		Measure(storage.Field{Name: "RRVariability", Kind: value.FloatKind}, "RRVariability")
}

// NewDiScRiPlatform generates the synthetic DiScRi cohort, acquires it
// and stands the warehouse up with the trial's pipeline, builder and
// Setup (FinishDiScRiSetup). This is the entry point the paper's
// experiments run on.
func NewDiScRiPlatform(cfg Config, dcfg discri.Config) (*Platform, error) {
	raw, err := discri.Generate(dcfg)
	if err != nil {
		return nil, err
	}
	p := New(cfg)
	if err := p.Acquire(raw); err != nil {
		p.Close()
		return nil, err
	}
	if err := p.StartFollow(FollowConfig{
		Pipeline: NewDiScRiPipeline(),
		Builder:  NewDiScRiBuilder(),
		Setup:    FinishDiScRiSetup,
	}); err != nil {
		p.Close()
		return nil, err
	}
	return p, nil
}

// FinishDiScRiSetup registers the trial's MDX measures and member display
// orders on a platform whose warehouse was built with NewDiScRiBuilder.
// It is the FollowConfig.Setup of every DiScRi platform, run after each
// (re)build.
func FinishDiScRiSetup(p *Platform) error {
	for name, m := range map[string]cube.MeasureRef{
		"PatientCount": PatientCountMeasure(),
		"AvgFBG":       {Agg: storage.AvgAgg, Column: "FBG"},
		"AvgSBP":       {Agg: storage.AvgAgg, Column: "LyingSBPAverage"},
		"AvgRRVar":     {Agg: storage.AvgAgg, Column: "RRVariability"},
	} {
		if err := p.RegisterMeasure(name, m); err != nil {
			return err
		}
	}
	orderOf := func(d etl.Discretizer) []value.Value {
		bins := d.Bins()
		out := make([]value.Value, len(bins))
		for i, b := range bins {
			out[i] = value.Str(b)
		}
		return out
	}
	p.Engine().SetMemberOrder(RefAgeBand10, orderOf(AgeBand10Scheme))
	p.Engine().SetMemberOrder(RefAgeBand5, orderOf(AgeBand5Scheme))
	p.Engine().SetMemberOrder(RefAgeBandTbl, orderOf(AgeScheme))
	p.Engine().SetMemberOrder(RefHTYears, orderOf(HTYearsScheme))
	p.Engine().SetMemberOrder(RefFBGBand, orderOf(FBGScheme))
	p.Engine().SetMemberOrder(RefDBPBand, orderOf(DBPScheme))
	p.Engine().SetMemberOrder(RefRRVarBand, orderOf(RRVarScheme))
	return nil
}
