// Package discri generates a synthetic stand-in for the DiScRi dataset
// (Diabetes Screening Complications Research Initiative, the paper's ref
// [19]): a diabetes-complications screening programme whose real data —
// 273 attributes over ~2500 attendances of ~900 patients — is not publicly
// available. The generator reproduces the dataset's shape and plants the
// statistical effects the paper reports, so every figure of the evaluation
// can be regenerated and checked:
//
//   - Fig 4: family history of diabetes tabulated by age group and gender.
//   - Fig 5: males dominate the 70-75 diabetic subgroup, females the
//     75-80 subgroup, and the proportion of diabetic women drops
//     substantially past 78.
//   - Fig 6: the number of 5-10-year hypertension cases dips in the 70-75
//     and 75-80 age subgroups.
//   - §II/[9]: absent knee/ankle reflexes together with a mid-range
//     glucose reading are highly predictive of diabetes.
//   - §V.C: the Ewing hand-grip test is frequently missing for elderly
//     participants (arthritis), motivating substitute risk markers.
//
// Everything is deterministic for a fixed seed.
package discri

import (
	"fmt"

	"github.com/ddgms/ddgms/internal/storage"
	"github.com/ddgms/ddgms/internal/value"
)

// TotalAttributes is the attribute count of the real DiScRi dataset; the
// generated schema always has exactly this many columns.
const TotalAttributes = 273

// Attribute groups mirroring the Fig 3 dimensional model. Each name lists
// the flat-table columns that feed that dimension.
var (
	// PersonalAttrs feed the Personal Information dimension (recorded per
	// patient, stable across visits).
	PersonalAttrs = []storage.Field{
		{Name: "PatientID", Kind: value.IntKind},
		{Name: "Gender", Kind: value.StringKind},
		{Name: "YearOfBirth", Kind: value.IntKind},
		{Name: "Education", Kind: value.StringKind},
		{Name: "Occupation", Kind: value.StringKind},
		{Name: "SmokingStatus", Kind: value.StringKind},
		{Name: "AlcoholUse", Kind: value.StringKind},
		{Name: "FamilyHistDiabetes", Kind: value.StringKind},
		{Name: "FamilyHistHeartDisease", Kind: value.StringKind},
		{Name: "Rurality", Kind: value.StringKind},
	}

	// VisitAttrs are bookkeeping columns for each attendance.
	VisitAttrs = []storage.Field{
		{Name: "VisitDate", Kind: value.TimeKind},
		{Name: "Age", Kind: value.FloatKind},
	}

	// ConditionAttrs feed the Medical Condition dimension.
	ConditionAttrs = []storage.Field{
		{Name: "DiabetesStatus", Kind: value.StringKind},
		{Name: "DiabetesType", Kind: value.StringKind},
		{Name: "HypertensionStatus", Kind: value.StringKind},
		{Name: "DiagnosticHTYears", Kind: value.FloatKind},
		{Name: "KidneyDisease", Kind: value.StringKind},
		{Name: "Retinopathy", Kind: value.StringKind},
		{Name: "NeuropathyDiagnosed", Kind: value.StringKind},
		{Name: "CardiovascularDisease", Kind: value.StringKind},
		{Name: "MedicationCount", Kind: value.IntKind},
	}

	// BloodAttrs feed the Fasting Bloods dimension.
	BloodAttrs = []storage.Field{
		{Name: "FBG", Kind: value.FloatKind},
		{Name: "HbA1c", Kind: value.FloatKind},
		{Name: "TotalCholesterol", Kind: value.FloatKind},
		{Name: "HDL", Kind: value.FloatKind},
		{Name: "LDL", Kind: value.FloatKind},
		{Name: "Triglycerides", Kind: value.FloatKind},
		{Name: "Creatinine", Kind: value.FloatKind},
		{Name: "eGFR", Kind: value.FloatKind},
		{Name: "ACR", Kind: value.FloatKind},
		{Name: "CRP", Kind: value.FloatKind},
	}

	// PressureAttrs feed the Blood Pressure dimension.
	PressureAttrs = []storage.Field{
		{Name: "LyingSBPAverage", Kind: value.FloatKind},
		{Name: "LyingDBPAverage", Kind: value.FloatKind},
		{Name: "StandingSBPAverage", Kind: value.FloatKind},
		{Name: "StandingDBPAverage", Kind: value.FloatKind},
		{Name: "PosturalDrop", Kind: value.FloatKind},
	}

	// LimbAttrs feed the Limb Health dimension, including the reflex tests
	// behind the paper's reflex × glucose interaction and the Ewing
	// battery.
	LimbAttrs = []storage.Field{
		{Name: "KneeReflexLeft", Kind: value.StringKind},
		{Name: "KneeReflexRight", Kind: value.StringKind},
		{Name: "AnkleReflexLeft", Kind: value.StringKind},
		{Name: "AnkleReflexRight", Kind: value.StringKind},
		{Name: "MonofilamentScore", Kind: value.FloatKind},
		{Name: "VibrationSense", Kind: value.StringKind},
		{Name: "FootPulses", Kind: value.StringKind},
		{Name: "EwingLyingStanding", Kind: value.FloatKind},
		{Name: "EwingValsalva", Kind: value.FloatKind},
		{Name: "EwingDeepBreathing", Kind: value.FloatKind},
		{Name: "EwingHandGrip", Kind: value.FloatKind},
		{Name: "EwingPosturalHypotension", Kind: value.FloatKind},
	}

	// ExerciseAttrs feed the Exercise Routine dimension.
	ExerciseAttrs = []storage.Field{
		{Name: "ExerciseFrequency", Kind: value.StringKind},
		{Name: "ExerciseMinutesPerWeek", Kind: value.FloatKind},
		{Name: "ExerciseType", Kind: value.StringKind},
	}

	// ECGAttrs feed the ECG dimension.
	ECGAttrs = []storage.Field{
		{Name: "HeartRate", Kind: value.FloatKind},
		{Name: "PRInterval", Kind: value.FloatKind},
		{Name: "QRSDuration", Kind: value.FloatKind},
		{Name: "QTInterval", Kind: value.FloatKind},
		{Name: "QTcInterval", Kind: value.FloatKind},
		{Name: "RRVariability", Kind: value.FloatKind},
	}
)

// panelPrefixes pads the schema to TotalAttributes with the laboratory
// panels the paper mentions (pro-inflammatory markers, oxidative stress
// markers and general biochemistry), split evenly.
var panelPrefixes = []string{"Inflammatory", "OxidativeStress", "Biochem"}

// Schema returns the full 273-column flat schema.
func Schema() *storage.Schema {
	fields := coreFields()
	pad := TotalAttributes - len(fields)
	if pad < 0 {
		panic(fmt.Sprintf("discri: core fields exceed %d attributes", TotalAttributes))
	}
	for i := 0; i < pad; i++ {
		prefix := panelPrefixes[i%len(panelPrefixes)]
		fields = append(fields, storage.Field{
			Name: fmt.Sprintf("%s%02d", prefix, i/len(panelPrefixes)+1),
			Kind: value.FloatKind,
		})
	}
	return storage.MustSchema(fields...)
}

func coreFields() []storage.Field {
	var fields []storage.Field
	for _, group := range [][]storage.Field{
		PersonalAttrs, VisitAttrs, ConditionAttrs, BloodAttrs,
		PressureAttrs, LimbAttrs, ExerciseAttrs, ECGAttrs,
	} {
		fields = append(fields, group...)
	}
	return fields
}
