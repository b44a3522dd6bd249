package discri

import (
	"fmt"
	"math"
	"math/rand"
	"time"

	"github.com/ddgms/ddgms/internal/storage"
	"github.com/ddgms/ddgms/internal/value"
)

// Config parameterises the generator.
type Config struct {
	// Patients is the cohort size; the paper reports nearly 900.
	Patients int
	// Seed drives the deterministic random stream.
	Seed int64
	// StartYear is the year screening began (the programme ran for a
	// decade from the mid 2000s).
	StartYear int
	// RevisitProb is the per-year probability a participant returns; 0.64
	// yields the paper's ~2500 attendances for 900 patients.
	RevisitProb float64
	// MissingRate is the baseline per-cell missingness of non-key
	// attributes.
	MissingRate float64
}

// DefaultConfig mirrors the published dataset's shape.
func DefaultConfig() Config {
	return Config{
		Patients:    900,
		Seed:        20130408, // the ICDEW 2013 workshop date
		StartYear:   2003,
		RevisitProb: 0.64,
		MissingRate: 0.03,
	}
}

// patient is the latent ground truth driving a participant's visits.
type patient struct {
	id             int64
	gender         string
	ageAtFirst     float64
	yearOfBirth    int
	diabetic       bool
	controlled     bool // diabetic with mid-range (managed) glucose
	progressor     bool // pre-diabetic, converting during the programme
	neuropathy     bool
	famHistDiab    bool
	famHistHeart   bool
	hypertensive   bool
	htYearsAtFirst float64
	education      string
	occupation     string
	smoking        string
	alcohol        string
	rurality       string
	exercise       string
	nVisits        int
}

// pDiabetes is the planted age/gender diabetes prevalence surface: rising
// with age, male-dominant in 70-75, female-dominant in 75-78, and
// substantially lower for women past 78 (the Fig 5 shape).
func pDiabetes(age float64, gender string) float64 {
	p := 0.04 + 0.0045*(age-30)
	if p < 0.04 {
		p = 0.04
	}
	if p > 0.30 {
		p = 0.30
	}
	switch {
	case gender == "M" && age >= 70 && age < 75:
		p *= 2.2
	case gender == "F" && age >= 75 && age < 78:
		p *= 3.0
	case gender == "F" && age >= 78:
		p *= 0.4
	}
	if p > 0.85 {
		p = 0.85
	}
	return p
}

// pHypertension is the age-dependent hypertension prevalence.
func pHypertension(age float64) float64 {
	p := 0.08 + 0.009*(age-40)
	if p < 0.05 {
		p = 0.05
	}
	if p > 0.75 {
		p = 0.75
	}
	return p
}

// sampleHTYears draws the years since hypertension diagnosis, planting the
// Fig 6 dip: participants aged 70-80 rarely sit in the 5-10-year bucket
// (their diagnoses cluster either recent or long-standing).
func sampleHTYears(rng *rand.Rand, age float64) float64 {
	if age < 41 {
		return rng.Float64() * math.Max(age-35, 1)
	}
	dur := rng.Float64() * (age - 40)
	if dur > 35 {
		dur = 35
	}
	if age >= 70 && age < 80 && dur >= 5 && dur < 10 {
		if rng.Float64() < 0.85 {
			if rng.Float64() < 0.5 {
				dur = rng.Float64() * 5 // move to <5
			} else {
				dur = 10 + rng.Float64()*10 // move to 10-20
			}
		}
	}
	return dur
}

func choice(rng *rand.Rand, options []string, weights []float64) string {
	var total float64
	for _, w := range weights {
		total += w
	}
	r := rng.Float64() * total
	for i, w := range weights {
		if r < w {
			return options[i]
		}
		r -= w
	}
	return options[len(options)-1]
}

func clamp(x, lo, hi float64) float64 {
	if x < lo {
		return lo
	}
	if x > hi {
		return hi
	}
	return x
}

func round1(x float64) float64 { return math.Round(x*10) / 10 }

func samplePatient(rng *rand.Rand, id int64, cfg Config) patient {
	p := patient{id: id}
	if rng.Float64() < 0.48 {
		p.gender = "M"
	} else {
		p.gender = "F"
	}
	// Screening cohorts skew older: a 60/40 mixture of N(66,10) and
	// U(25,92).
	if rng.Float64() < 0.6 {
		p.ageAtFirst = clamp(66+rng.NormFloat64()*10, 25, 92)
	} else {
		p.ageAtFirst = 25 + rng.Float64()*67
	}
	p.diabetic = rng.Float64() < pDiabetes(p.ageAtFirst, p.gender)
	if p.diabetic {
		p.controlled = rng.Float64() < 0.25
	} else {
		p.progressor = rng.Float64() < 0.15
	}
	switch {
	case p.diabetic:
		p.neuropathy = rng.Float64() < 0.70
	case p.progressor:
		// The planted pre-clinical interaction: nervous-system dysfunction
		// present at the pre-diabetes stage.
		p.neuropathy = rng.Float64() < 0.60
	default:
		p.neuropathy = rng.Float64() < 0.06
	}
	if p.diabetic || p.progressor {
		p.famHistDiab = rng.Float64() < 0.55
	} else {
		p.famHistDiab = rng.Float64() < 0.28
	}
	p.famHistHeart = rng.Float64() < 0.33
	p.hypertensive = rng.Float64() < pHypertension(p.ageAtFirst)
	if p.hypertensive {
		p.htYearsAtFirst = sampleHTYears(rng, p.ageAtFirst)
	}
	p.education = choice(rng, []string{"primary", "secondary", "tertiary"}, []float64{0.25, 0.5, 0.25})
	p.occupation = choice(rng, []string{"farming", "trades", "professional", "retired", "home duties"},
		[]float64{0.2, 0.2, 0.15, 0.35, 0.1})
	p.smoking = choice(rng, []string{"never", "former", "current"}, []float64{0.5, 0.35, 0.15})
	p.alcohol = choice(rng, []string{"none", "moderate", "high"}, []float64{0.3, 0.55, 0.15})
	p.rurality = choice(rng, []string{"town", "rural", "remote"}, []float64{0.55, 0.35, 0.1})
	if p.diabetic {
		p.exercise = choice(rng, []string{"none", "occasional", "regular"}, []float64{0.45, 0.35, 0.2})
	} else {
		p.exercise = choice(rng, []string{"none", "occasional", "regular"}, []float64{0.25, 0.4, 0.35})
	}
	p.nVisits = 1
	for p.nVisits < 8 && rng.Float64() < cfg.RevisitProb {
		p.nVisits++
	}
	p.yearOfBirth = cfg.StartYear - int(p.ageAtFirst)
	return p
}

// Generate produces the flat attendance table: one row per visit, 273
// columns, deterministic for a given config.
func Generate(cfg Config) (*storage.Table, error) {
	if cfg.Patients < 1 {
		return nil, fmt.Errorf("discri: need at least one patient")
	}
	if cfg.RevisitProb < 0 || cfg.RevisitProb >= 1 {
		return nil, fmt.Errorf("discri: RevisitProb must be in [0,1), got %g", cfg.RevisitProb)
	}
	if cfg.MissingRate < 0 || cfg.MissingRate > 0.5 {
		return nil, fmt.Errorf("discri: MissingRate must be in [0,0.5], got %g", cfg.MissingRate)
	}
	rng := rand.New(rand.NewSource(cfg.Seed))
	schema := Schema()
	tbl := storage.MustTable(schema)
	row := make([]value.Value, schema.Len())
	// The named clinical columns come first, the laboratory panels after.
	// A visit writes the named ones in schema order, so set finds each by
	// scanning forward from the column it wrote last instead of looking
	// the name up: a column it passes over stays NA.
	panels := len(coreFields())
	next := 0
	set := func(name string, v value.Value) {
		for next < panels && schema.Field(next).Name != name {
			next++
		}
		if next == panels {
			panic("discri: column " + name + " unknown or set out of schema order")
		}
		row[next] = v
		next++
	}
	// maybeNA applies baseline missingness to a non-key cell.
	maybeNA := func(v value.Value) value.Value {
		if rng.Float64() < cfg.MissingRate {
			return value.NA()
		}
		return v
	}

	for pid := int64(1); pid <= int64(cfg.Patients); pid++ {
		p := samplePatient(rng, pid, cfg)
		firstVisit := time.Date(cfg.StartYear, time.Month(1+rng.Intn(12)), 1+rng.Intn(28), 9, 0, 0, 0, time.UTC)
		// Progressors convert to diagnosed diabetes partway through their
		// visit history.
		convertAt := p.nVisits + 1
		if p.progressor && p.nVisits > 1 {
			convertAt = 2 + rng.Intn(p.nVisits-1)
		}
		for v := 0; v < p.nVisits; v++ {
			for j := range row {
				row[j] = value.NA()
			}
			next = 0
			visitDate := firstVisit.AddDate(v, rng.Intn(3), rng.Intn(20))
			age := p.ageAtFirst + float64(v)
			diagnosed := p.diabetic || (p.progressor && v+1 >= convertAt)

			// Personal information (keys never go missing).
			set("PatientID", value.Int(p.id))
			set("Gender", value.Str(p.gender))
			set("YearOfBirth", value.Int(int64(p.yearOfBirth)))
			set("Education", maybeNA(value.Str(p.education)))
			set("Occupation", maybeNA(value.Str(p.occupation)))
			set("SmokingStatus", maybeNA(value.Str(p.smoking)))
			set("AlcoholUse", maybeNA(value.Str(p.alcohol)))
			set("FamilyHistDiabetes", maybeNA(value.Str(yesNo(p.famHistDiab))))
			set("FamilyHistHeartDisease", maybeNA(value.Str(yesNo(p.famHistHeart))))
			set("Rurality", maybeNA(value.Str(p.rurality)))
			set("VisitDate", value.Time(visitDate))
			set("Age", value.Float(round1(age)))

			// Medical condition.
			set("DiabetesStatus", value.Str(yesNo(diagnosed)))
			if diagnosed {
				set("DiabetesType", value.Str(choice(rng, []string{"Type2", "Type1"}, []float64{0.92, 0.08})))
			} else {
				set("DiabetesType", value.Str("None"))
			}
			set("HypertensionStatus", value.Str(yesNo(p.hypertensive)))
			if p.hypertensive {
				set("DiagnosticHTYears", value.Float(round1(p.htYearsAtFirst+float64(v))))
			}
			set("KidneyDisease", maybeNA(value.Str(yesNo(rng.Float64() < kidneyProb(diagnosed, age)))))
			set("Retinopathy", maybeNA(value.Str(yesNo(diagnosed && rng.Float64() < 0.25))))
			set("NeuropathyDiagnosed", maybeNA(value.Str(yesNo(p.neuropathy && rng.Float64() < 0.6))))
			set("CardiovascularDisease", maybeNA(value.Str(yesNo(rng.Float64() < cvdProb(diagnosed, age)))))
			medCount := rng.Intn(3)
			if diagnosed {
				medCount += 1 + rng.Intn(3)
			}
			if p.hypertensive {
				medCount++
			}
			set("MedicationCount", maybeNA(value.Int(int64(medCount))))

			// Fasting bloods. Controlled diabetics sit in the mid range —
			// the glucose half of the planted reflex × glucose interaction.
			var fbg float64
			switch {
			case p.diabetic && p.controlled:
				fbg = clamp(6.3+rng.NormFloat64()*0.35, 5.6, 6.99)
			case diagnosed:
				fbg = clamp(8.3+rng.NormFloat64()*1.1, 7.0, 14.0)
			case p.progressor:
				fbg = clamp(6.4+rng.NormFloat64()*0.35, 5.6, 6.99)
			default:
				fbg = clamp(5.0+rng.NormFloat64()*0.45, 3.8, 6.0)
			}
			set("FBG", maybeNA(value.Float(round1(fbg))))
			set("HbA1c", maybeNA(value.Float(round1(clamp(2.7+0.55*fbg+rng.NormFloat64()*0.3, 4.0, 12.0)))))
			chol := clamp(4.9+rng.NormFloat64()*0.9, 2.5, 9.0)
			hdl := clamp(1.4+rng.NormFloat64()*0.3, 0.6, 3.0)
			set("TotalCholesterol", maybeNA(value.Float(round1(chol))))
			set("HDL", maybeNA(value.Float(round1(hdl))))
			set("LDL", maybeNA(value.Float(round1(clamp(chol-hdl-0.5, 0.5, 7.0)))))
			set("Triglycerides", maybeNA(value.Float(round1(clamp(1.4+boolTo(diagnosed, 0.6)+rng.NormFloat64()*0.6, 0.3, 6.0)))))
			creat := clamp(75+boolTo(diagnosed, 12)+(age-50)*0.4+rng.NormFloat64()*12, 40, 220)
			set("Creatinine", maybeNA(value.Float(round1(creat))))
			set("eGFR", maybeNA(value.Float(round1(clamp(140-age-creat*0.2+rng.NormFloat64()*8, 10, 120)))))
			set("ACR", maybeNA(value.Float(round1(clamp(1.2+boolTo(diagnosed, 2.5)+rng.NormFloat64()*1.5, 0.1, 40)))))
			set("CRP", maybeNA(value.Float(round1(clamp(2+boolTo(diagnosed, 2)+rng.NormFloat64()*1.6, 0.1, 25)))))

			// Blood pressure.
			htBoost := boolTo(p.hypertensive, 18)
			sbp := clamp(116+htBoost+(age-50)*0.35+rng.NormFloat64()*9, 85, 230)
			dbp := clamp(73+htBoost*0.5+(age-50)*0.08+rng.NormFloat64()*7, 45, 130)
			drop := clamp(boolTo(p.neuropathy, 14)+rng.NormFloat64()*6, -10, 45)
			set("LyingSBPAverage", maybeNA(value.Float(round1(sbp))))
			set("LyingDBPAverage", maybeNA(value.Float(round1(dbp))))
			set("StandingSBPAverage", maybeNA(value.Float(round1(sbp-drop))))
			set("StandingDBPAverage", maybeNA(value.Float(round1(dbp-drop*0.5))))
			set("PosturalDrop", maybeNA(value.Float(round1(drop))))

			// Limb health: absent reflexes mark neuropathy — the reflex half
			// of the interaction.
			setReflex := func(name string) {
				absent := p.neuropathy
				if rng.Float64() < 0.08 {
					absent = !absent // measurement noise
				}
				lbl := "present"
				if absent {
					lbl = "absent"
				}
				set(name, maybeNA(value.Str(lbl)))
			}
			setReflex("KneeReflexLeft")
			setReflex("KneeReflexRight")
			setReflex("AnkleReflexLeft")
			setReflex("AnkleReflexRight")
			set("MonofilamentScore", maybeNA(value.Float(round1(clamp(10-boolTo(p.neuropathy, 4)+rng.NormFloat64()*1.2, 0, 10)))))
			set("VibrationSense", maybeNA(value.Str(presentReduced(rng, p.neuropathy))))
			set("FootPulses", maybeNA(value.Str(presentReduced(rng, diagnosed && rng.Float64() < 0.3))))

			// Ewing battery; ratios near 1 are abnormal (autonomic
			// neuropathy). The hand-grip test is largely infeasible for
			// elderly participants — the paper's motivating gap.
			ewing := func(normal, abnormal float64) float64 {
				base := normal
				if p.neuropathy {
					base = abnormal
				}
				return clamp(base+rng.NormFloat64()*0.06, 0.8, 2.2)
			}
			set("EwingLyingStanding", maybeNA(value.Float(round1(ewing(1.25, 1.02)))))
			set("EwingValsalva", maybeNA(value.Float(round1(ewing(1.45, 1.08)))))
			set("EwingDeepBreathing", maybeNA(value.Float(round1(ewing(1.30, 1.05)))))
			grip := value.Float(round1(clamp(16+boolTo(p.gender == "M", 8)+rng.NormFloat64()*4, 2, 40)))
			switch {
			case age >= 75 && rng.Float64() < 0.75:
				set("EwingHandGrip", value.NA())
			case age >= 65 && rng.Float64() < 0.25:
				set("EwingHandGrip", value.NA())
			default:
				set("EwingHandGrip", maybeNA(grip))
			}
			set("EwingPosturalHypotension", maybeNA(value.Float(round1(clamp(drop, 0, 45)))))

			// Exercise routine.
			set("ExerciseFrequency", maybeNA(value.Str(p.exercise)))
			minutes := exerciseMinutes[p.exercise]
			set("ExerciseMinutesPerWeek", maybeNA(value.Float(round1(clamp(minutes+rng.NormFloat64()*30, 0, 600)))))
			set("ExerciseType", maybeNA(value.Str(choice(rng, []string{"walking", "swimming", "gym", "none"},
				[]float64{0.5, 0.15, 0.15, 0.2}))))

			// ECG: reduced RR variability marks cardiac autonomic
			// neuropathy.
			hr := clamp(70+boolTo(p.neuropathy, 6)+rng.NormFloat64()*9, 45, 120)
			set("HeartRate", maybeNA(value.Float(round1(hr))))
			set("PRInterval", maybeNA(value.Float(round1(clamp(160+rng.NormFloat64()*18, 110, 260)))))
			set("QRSDuration", maybeNA(value.Float(round1(clamp(92+rng.NormFloat64()*9, 70, 140)))))
			qt := clamp(390+boolTo(diagnosed, 12)+rng.NormFloat64()*20, 320, 500)
			set("QTInterval", maybeNA(value.Float(round1(qt))))
			set("QTcInterval", maybeNA(value.Float(round1(clamp(qt*math.Sqrt(hr/60)/1.0, 330, 540)))))
			set("RRVariability", maybeNA(value.Float(round1(clamp(38-boolTo(p.neuropathy, 20)+rng.NormFloat64()*7, 2, 80)))))

			// Laboratory panels: plausible assay values, mildly shifted for
			// diabetics on the inflammatory panel.
			for j := panels; j < len(row); j++ {
				base := 50 + rng.NormFloat64()*15
				if diagnosed && schema.Field(j).Name[0] == 'I' { // Inflammatory*
					base += 8
				}
				row[j] = maybeNA(value.Float(round1(clamp(base, 0, 150))))
			}

			if err := tbl.AppendRow(row); err != nil {
				return nil, fmt.Errorf("discri: patient %d visit %d: %w", pid, v, err)
			}
		}
	}
	return tbl, nil
}

// exerciseMinutes is the typical weekly exercise time per frequency.
var exerciseMinutes = map[string]float64{"none": 15, "occasional": 90, "regular": 210}

func yesNo(b bool) string {
	if b {
		return "Yes"
	}
	return "No"
}

func boolTo(b bool, v float64) float64 {
	if b {
		return v
	}
	return 0
}

func kidneyProb(diabetic bool, age float64) float64 {
	p := 0.03 + (age-50)*0.002
	if diabetic {
		p += 0.12
	}
	return clamp(p, 0.01, 0.5)
}

func cvdProb(diabetic bool, age float64) float64 {
	p := 0.05 + (age-50)*0.004
	if diabetic {
		p += 0.1
	}
	return clamp(p, 0.01, 0.6)
}

func presentReduced(rng *rand.Rand, impaired bool) string {
	if impaired && rng.Float64() < 0.8 {
		return "reduced"
	}
	return "present"
}
