package core

import (
	"context"
	"errors"
	"fmt"
	"strings"
	"sync"
	"testing"
	"time"

	"github.com/ddgms/ddgms/internal/cube"
	"github.com/ddgms/ddgms/internal/discri"
	"github.com/ddgms/ddgms/internal/etl"
	"github.com/ddgms/ddgms/internal/kb"
	"github.com/ddgms/ddgms/internal/mining"
	"github.com/ddgms/ddgms/internal/oltp"
	"github.com/ddgms/ddgms/internal/star"
	"github.com/ddgms/ddgms/internal/storage"
	"github.com/ddgms/ddgms/internal/value"
)

// smallPlatform builds a DiScRi platform with a reduced cohort; shared
// across tests because the full ETL + load pipeline is the expensive part.
func smallPlatform(t *testing.T) *Platform {
	t.Helper()
	dcfg := discri.DefaultConfig()
	dcfg.Patients = 220
	p, err := NewDiScRiPlatform(Config{}, dcfg)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { p.Close() })
	return p
}

func discriFollow() FollowConfig {
	return FollowConfig{Pipeline: NewDiScRiPipeline(), Builder: NewDiScRiBuilder(), Setup: FinishDiScRiSetup}
}

// TestPhaseOrderEnforced checks that nothing reads or grafts onto the
// warehouse before StartFollow has built it, with or without data in
// the store, and that a platform builds its warehouse only once.
func TestPhaseOrderEnforced(t *testing.T) {
	p := New(Config{})
	if err := p.StartFollow(discriFollow()); err == nil {
		t.Error("StartFollow before Acquire must fail")
	}
	dcfg := discri.DefaultConfig()
	dcfg.Patients = 10
	raw, err := discri.Generate(dcfg)
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	for _, stage := range []string{"empty", "acquired"} {
		if stage == "acquired" {
			if err := p.Acquire(raw); err != nil {
				t.Fatal(err)
			}
		}
		if _, err := p.QueryCtx(ctx, cube.Query{}); err == nil {
			t.Errorf("%s: Query before StartFollow must fail", stage)
		}
		if _, err := p.QueryMDXCtx(ctx, "SELECT {[X].[Y].MEMBERS} ON COLUMNS FROM [MedicalMeasures]"); err == nil {
			t.Errorf("%s: MDX before StartFollow must fail", stage)
		}
		if _, err := p.QuerySQLCtx(ctx, "SELECT count(*) FROM visits"); err == nil {
			t.Errorf("%s: DG-SQL before StartFollow must fail", stage)
		}
		if _, err := p.Mine(nil, "X"); err == nil {
			t.Errorf("%s: Mine before StartFollow must fail", stage)
		}
		if err := p.RegisterMeasure("X", cube.MeasureRef{}); err == nil {
			t.Errorf("%s: RegisterMeasure before StartFollow must fail", stage)
		}
		if err := p.AddFeedbackDimension("X", nil, nil); err == nil {
			t.Errorf("%s: feedback before StartFollow must fail", stage)
		}
		if _, err := p.Refresh(); err == nil {
			t.Errorf("%s: Refresh before StartFollow must fail", stage)
		}
		if p.Warehouse() != nil {
			t.Errorf("%s: Warehouse before StartFollow must be nil", stage)
		}
		if _, ok := p.Freshness(); ok {
			t.Errorf("%s: Freshness before StartFollow must report not ok", stage)
		}
	}
	if err := p.StartFollow(discriFollow()); err != nil {
		t.Fatal(err)
	}
	if err := p.StartFollow(discriFollow()); err == nil {
		t.Error("a second StartFollow must fail")
	}
	if err := p.Close(); err != nil {
		t.Errorf("Close: %v", err)
	}
	if err := New(Config{}).Close(); err != nil {
		t.Errorf("Close on empty platform: %v", err)
	}
}

// TestInMemoryPlatformHasNoFeed checks the bootstrap-only maintainer an
// in-memory store gets: the warehouse answers queries, but Refresh and
// RunFollow report that there is no WAL to tail (RunFollow at once, not
// after backing off forever) and Freshness has no lag to report.
func TestInMemoryPlatformHasNoFeed(t *testing.T) {
	dcfg := discri.DefaultConfig()
	dcfg.Patients = 20
	p, err := NewDiScRiPlatform(Config{}, dcfg)
	if err != nil {
		t.Fatal(err)
	}
	defer p.Close()
	if _, err := p.QueryCtx(context.Background(), cube.Query{Measure: PatientCountMeasure()}); err != nil {
		t.Fatalf("query on an in-memory platform: %v", err)
	}
	if _, err := p.Refresh(); !errors.Is(err, oltp.ErrNoWAL) {
		t.Errorf("Refresh = %v, want oltp.ErrNoWAL", err)
	}
	done := make(chan error, 1)
	go func() { done <- p.RunFollow(context.Background()) }()
	select {
	case err := <-done:
		if !errors.Is(err, oltp.ErrNoWAL) {
			t.Errorf("RunFollow = %v, want oltp.ErrNoWAL", err)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("RunFollow on an in-memory store did not return")
	}
	if _, ok := p.Freshness(); ok {
		t.Error("Freshness on an in-memory store must report not ok")
	}
}

func TestDiScRiPlatformEndToEnd(t *testing.T) {
	p := smallPlatform(t)
	// The warehouse has the eight Fig 3 dimensions.
	dims := p.Warehouse().Dimensions()
	if len(dims) != 8 {
		t.Errorf("dimensions = %d, want 8", len(dims))
	}
	names := map[string]bool{}
	for _, d := range dims {
		names[d.Name()] = true
	}
	for _, want := range []string{"PersonalInformation", "MedicalCondition", "FastingBloods",
		"LimbHealth", "ExerciseRoutine", "BloodPressure", "ECG", "Cardinality"} {
		if !names[want] {
			t.Errorf("missing dimension %q", want)
		}
	}
	// OLTP store retains the raw rows; facts match attendance count.
	if p.Store().Len() != p.Warehouse().Fact().Len() {
		t.Errorf("store %d rows vs %d facts", p.Store().Len(), p.Warehouse().Fact().Len())
	}
	// Describe mentions the Age hierarchy.
	if !strings.Contains(p.Warehouse().Describe(), "hierarchy Age") {
		t.Error("Describe missing hierarchy")
	}
}

func TestDiScRiOLAPQuery(t *testing.T) {
	p := smallPlatform(t)
	cs, err := p.QueryCtx(context.Background(), cube.Query{
		Rows:    []cube.AttrRef{RefAgeBand10},
		Cols:    []cube.AttrRef{RefGender},
		Slicers: []cube.Slicer{{Ref: RefDiabetes, Values: []value.Value{value.Str("Yes")}}},
		Measure: PatientCountMeasure(),
	})
	if err != nil {
		t.Fatal(err)
	}
	if cs.Rows() == 0 || cs.Columns() != 2 {
		t.Fatalf("shape %dx%d", cs.Rows(), cs.Columns())
	}
	if cs.Total() == 0 {
		t.Error("no diabetic patients found")
	}
	// Age bands obey the declared member order (lexicographic would put
	// "<30" somewhere else).
	if cs.Rows() > 1 && cs.RowLabel(0) == ">=90" {
		t.Errorf("member order not applied: first row %q", cs.RowLabel(0))
	}
}

func TestDiScRiMDXQuery(t *testing.T) {
	p := smallPlatform(t)
	cs, err := p.QueryMDXCtx(context.Background(), `SELECT {[PersonalInformation].[Gender].MEMBERS} ON COLUMNS,
		NON EMPTY {[PersonalInformation].[AgeBand10].MEMBERS} ON ROWS
		FROM [MedicalMeasures]
		WHERE ([MedicalCondition].[DiabetesStatus].[Yes], [Measures].[PatientCount])`)
	if err != nil {
		t.Fatal(err)
	}
	if cs.Total() == 0 {
		t.Error("MDX query returned nothing")
	}
}

func TestPatientRecordOLTPReport(t *testing.T) {
	p := smallPlatform(t)
	// Patient 1 exists in every generated cohort; the report returns all
	// of their attendances in insertion order.
	rows, err := p.PatientRecord("PatientID", value.Int(1))
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) == 0 {
		t.Fatal("no attendances for patient 1")
	}
	pidIdx, _ := p.Store().Schema().Lookup("PatientID")
	for _, r := range rows {
		if r[pidIdx].Int() != 1 {
			t.Errorf("foreign row in patient record: %v", r[pidIdx])
		}
	}
	// Second call reuses the index.
	rows2, err := p.PatientRecord("PatientID", value.Int(1))
	if err != nil || len(rows2) != len(rows) {
		t.Errorf("second lookup: %d rows, %v", len(rows2), err)
	}
	// Unknown patient: empty, not an error.
	none, err := p.PatientRecord("PatientID", value.Int(999999))
	if err != nil || len(none) != 0 {
		t.Errorf("unknown patient: %d rows, %v", len(none), err)
	}
	// Unknown column.
	if _, err := p.PatientRecord("Nope", value.Int(1)); err == nil {
		t.Error("unknown column must fail")
	}
	// Before acquisition.
	empty := New(Config{})
	if _, err := empty.PatientRecord("PatientID", value.Int(1)); err == nil {
		t.Error("record before acquire must fail")
	}
}

// TestPatientRecordConcurrentFirstUse releases several first calls at
// once on fresh stores: whichever loses the race to create the index
// must still answer, not fail on "index already exists".
func TestPatientRecordConcurrentFirstUse(t *testing.T) {
	dcfg := discri.DefaultConfig()
	dcfg.Patients = 30
	raw, err := discri.Generate(dcfg)
	if err != nil {
		t.Fatal(err)
	}
	for round := 0; round < 5; round++ {
		p := New(Config{})
		if err := p.Acquire(raw); err != nil {
			t.Fatal(err)
		}
		start := make(chan struct{})
		errs := make(chan error, 8)
		var wg sync.WaitGroup
		for g := 0; g < 8; g++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				<-start
				rows, err := p.PatientRecord("PatientID", value.Int(1))
				if err == nil && len(rows) == 0 {
					err = fmt.Errorf("no attendances for patient 1")
				}
				errs <- err
			}()
		}
		close(start)
		wg.Wait()
		close(errs)
		for err := range errs {
			if err != nil {
				t.Fatalf("round %d: %v", round, err)
			}
		}
		p.Close()
	}
}

func TestDiScRiMine(t *testing.T) {
	p := smallPlatform(t)
	ds, err := p.Mine([]string{"FBGBand", "ReflexStatus", "Gender"}, "DiabetesStatus")
	if err != nil {
		t.Fatal(err)
	}
	if ds.Len() == 0 {
		t.Fatal("empty dataset")
	}
	cm, err := mining.CrossValidate(func() mining.Classifier { return mining.NewNaiveBayes() }, ds, 5, 1)
	if err != nil {
		t.Fatal(err)
	}
	// FBGBand almost determines the label; accuracy should be high.
	if cm.Accuracy() < 0.85 {
		t.Errorf("CV accuracy on warehouse features = %.3f", cm.Accuracy())
	}
}

func TestFBGTrendDimension(t *testing.T) {
	p := smallPlatform(t)
	cs, err := p.QueryCtx(context.Background(), cube.Query{
		Rows:    []cube.AttrRef{{Dim: "FastingBloods", Attr: "FBGTrend"}},
		Cols:    []cube.AttrRef{RefDiabetes},
		Measure: cube.MeasureRef{Agg: storage.CountAgg},
	})
	if err != nil {
		t.Fatal(err)
	}
	labels := map[string]bool{}
	for i := 0; i < cs.Rows(); i++ {
		labels[cs.RowLabel(i)] = true
	}
	if !labels["baseline"] {
		t.Errorf("missing baseline trend row: %v", labels)
	}
	// Revisiting patients exist, so at least one non-baseline trend label
	// must appear.
	if !labels["steady"] && !labels["increasing"] && !labels["decreasing"] {
		t.Errorf("no trend labels beyond baseline: %v", labels)
	}
	if cs.Total() == 0 {
		t.Error("empty trend crosstab")
	}
}

func TestDiScRiTrajectoryModel(t *testing.T) {
	p := smallPlatform(t)
	m, err := p.TrajectoryModel("PatientID", "VisitDate", "FBG", FBGScheme)
	if err != nil {
		t.Fatal(err)
	}
	// Diabetic is near-absorbing in the generator; its self-transition
	// should dominate.
	pDD, err := m.TransitionProb("Diabetic", "Diabetic")
	if err != nil {
		t.Fatal(err)
	}
	if pDD < 0.5 {
		t.Errorf("P(Diabetic|Diabetic) = %.2f, want majority", pDD)
	}
	if _, err := p.TrajectoryModel("Nope", "VisitDate", "FBG", FBGScheme); err == nil {
		t.Error("unknown column must fail")
	}
}

func TestDiScRiStability(t *testing.T) {
	p := smallPlatform(t)
	base := cube.Query{
		Rows:    []cube.AttrRef{RefGender},
		Measure: cube.MeasureRef{Agg: storage.CountAgg},
	}
	rep, err := p.ValidateStability(base, []cube.AttrRef{RefExercise, RefFBGBand}, 1e-9)
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Results) != 2 {
		t.Fatalf("results = %d", len(rep.Results))
	}
	// The roll-up identity must hold for additive measures.
	if !rep.Stable() {
		t.Errorf("aggregates unstable: %+v", rep.Results)
	}
}

// addClinicianReview grafts the clinician-review feedback dimension:
// attendances with FBG >= 7 are flagged for review.
func addClinicianReview(p *Platform) error {
	return p.AddFeedbackDimension("ClinicianReview",
		[]storage.Field{{Name: "Flag", Kind: value.StringKind}},
		func(s *star.Schema, i int) ([]value.Value, error) {
			fbg, err := s.Fact().Measure("FBG")
			if err != nil {
				return nil, err
			}
			if f, ok := fbg.Value(i).AsFloat(); ok && f >= 7 {
				return []value.Value{value.Str("review")}, nil
			}
			return []value.Value{value.Str("routine")}, nil
		})
}

func TestFeedbackLoop(t *testing.T) {
	p := smallPlatform(t)
	// Clinician flags high-FBG attendances for review; the flag becomes a
	// dimension and is immediately queryable.
	if err := addClinicianReview(p); err != nil {
		t.Fatal(err)
	}
	cs, err := p.QueryCtx(context.Background(), cube.Query{
		Rows:    []cube.AttrRef{{Dim: "ClinicianReview", Attr: "Flag"}},
		Measure: cube.MeasureRef{Agg: storage.CountAgg},
	})
	if err != nil {
		t.Fatal(err)
	}
	if cs.Rows() != 2 {
		t.Errorf("feedback dimension rows = %d", cs.Rows())
	}
	// Findings accumulate in the knowledge base and promote.
	id, err := p.RecordFinding("diabetes", "male dominance in 70-75 diabetic subgroup", "olap")
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 2; i++ {
		if err := p.ReinforceFinding(id); err != nil {
			t.Fatal(err)
		}
	}
	f, err := p.KB().Get(id)
	if err != nil {
		t.Fatal(err)
	}
	if f.Status != "established" {
		t.Errorf("finding status = %s", f.Status)
	}
	if err := p.ReinforceFinding("F9999"); err == nil {
		t.Error("reinforcing an unknown finding must fail")
	}
	p.KB().ApplyEvent(kb.Event{Op: kb.EvRetract, ID: id})
	if err := p.ReinforceFinding(id); err == nil {
		t.Error("reinforcing a retracted finding must fail")
	}
}

func TestDurablePlatformRecovers(t *testing.T) {
	dir := t.TempDir()
	dcfg := discri.DefaultConfig()
	dcfg.Patients = 40
	p, err := NewDiScRiPlatform(Config{DataDir: dir}, dcfg)
	if err != nil {
		t.Fatal(err)
	}
	rows := p.Store().Len()
	if err := p.Close(); err != nil {
		t.Fatal(err)
	}

	// Reopen: the raw data must come back from the WAL without
	// regenerating.
	p2 := New(Config{DataDir: dir})
	defer p2.Close()
	if err := p2.OpenStore(discri.Schema()); err != nil {
		t.Fatal(err)
	}
	if p2.Store().Len() != rows {
		t.Errorf("recovered %d rows, want %d", p2.Store().Len(), rows)
	}
	if err := p2.StartFollow(discriFollow()); err != nil {
		t.Fatal(err)
	}
	if p2.Warehouse().Fact().Len() != rows {
		t.Errorf("rebuilt facts = %d, want %d", p2.Warehouse().Fact().Len(), rows)
	}
}

func TestTableISchemes(t *testing.T) {
	// Spot-check the published scheme boundaries.
	cases := []struct {
		scheme etl.Discretizer
		in     float64
		want   string
	}{
		{AgeScheme, 39.9, "<40"},
		{AgeScheme, 80, ">80"},
		{HTYearsScheme, 7, "5-10"},
		{HTYearsScheme, 25, ">20"},
		{FBGScheme, 5.4, "very good"},
		{FBGScheme, 6.5, "preDiabetic"},
		{DBPScheme, 95, "hypertension"},
		{DBPScheme, 70, "normal"},
	}
	for _, c := range cases {
		got, err := c.scheme.Apply(value.Float(c.in))
		if err != nil {
			t.Fatal(err)
		}
		if got.Str() != c.want {
			t.Errorf("%g -> %q, want %q", c.in, got.Str(), c.want)
		}
	}
}
