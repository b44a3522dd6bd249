package etl

import (
	"testing"
	"time"

	"github.com/ddgms/ddgms/internal/storage"
	"github.com/ddgms/ddgms/internal/value"
)

func day(n int) time.Time {
	return time.Date(2012, 1, 1, 0, 0, 0, 0, time.UTC).AddDate(0, 0, n)
}

func mkObs(n int, v float64) Observation {
	return Observation{At: day(n), V: value.Float(v)}
}

func TestAbstractStates(t *testing.T) {
	scheme := MustManualScheme("FBG", []float64{5.5, 7}, []string{"normal", "elevated", "diabetic"})
	readings := []Observation{
		mkObs(0, 5.0), mkObs(30, 5.2), // normal ×2
		mkObs(60, 6.0), mkObs(90, 6.5), mkObs(120, 6.9), // elevated ×3
		mkObs(150, 7.5), // diabetic ×1
		mkObs(180, 6.0), // back to elevated
	}
	ivals, err := AbstractStates(readings, scheme)
	if err != nil {
		t.Fatal(err)
	}
	want := []struct {
		state string
		n     int
	}{{"normal", 2}, {"elevated", 3}, {"diabetic", 1}, {"elevated", 1}}
	if len(ivals) != len(want) {
		t.Fatalf("intervals = %d, want %d: %+v", len(ivals), len(want), ivals)
	}
	for i, w := range want {
		if ivals[i].State != w.state || ivals[i].N != w.n {
			t.Errorf("interval %d = %s/%d, want %s/%d", i, ivals[i].State, ivals[i].N, w.state, w.n)
		}
	}
	if !ivals[0].Start.Equal(day(0)) || !ivals[0].End.Equal(day(30)) {
		t.Errorf("interval 0 span = %v..%v", ivals[0].Start, ivals[0].End)
	}
}

func TestAbstractStatesUnorderedInputAndNA(t *testing.T) {
	scheme := MustManualScheme("X", []float64{5}, []string{"lo", "hi"})
	readings := []Observation{
		mkObs(60, 9), {At: day(30), V: value.NA()}, mkObs(0, 1),
	}
	ivals, err := AbstractStates(readings, scheme)
	if err != nil {
		t.Fatal(err)
	}
	if len(ivals) != 2 || ivals[0].State != "lo" || ivals[1].State != "hi" {
		t.Errorf("intervals = %+v", ivals)
	}
	// Input slice order must be preserved.
	if !readings[0].At.Equal(day(60)) {
		t.Error("AbstractStates reordered its input")
	}
}

func TestAbstractStatesEmpty(t *testing.T) {
	scheme := MustManualScheme("X", []float64{5}, []string{"lo", "hi"})
	ivals, err := AbstractStates(nil, scheme)
	if err != nil || len(ivals) != 0 {
		t.Errorf("empty input: %v, %v", ivals, err)
	}
}

// trendLabels runs the pipeline's trend step over one patient's readings
// and returns the label of each reading, in input order.
func trendLabels(t *testing.T, readings []Observation, epsilonPerDay float64) []string {
	t.Helper()
	tbl := storage.MustTable(storage.MustSchema(
		storage.Field{Name: "P", Kind: value.IntKind},
		storage.Field{Name: "D", Kind: value.TimeKind},
		storage.Field{Name: "V", Kind: value.FloatKind},
	))
	for _, o := range readings {
		if err := tbl.AppendRow([]value.Value{value.Int(1), value.Time(o.At), o.V}); err != nil {
			t.Fatal(err)
		}
	}
	var p Pipeline
	out, err := p.AddTrend("P", "D", "V", "T", epsilonPerDay).Run(tbl)
	if err != nil {
		t.Fatal(err)
	}
	labels := make([]string, out.Len())
	for i := range labels {
		labels[i] = out.MustValue(i, "T").String()
	}
	return labels
}

func TestAbstractTrends(t *testing.T) {
	readings := []Observation{
		mkObs(0, 100), mkObs(10, 120), mkObs(20, 140), // increasing (2/day)
		mkObs(30, 140.1), // steady (0.01/day)
		mkObs(40, 100),   // decreasing
	}
	want := []string{TrendBaseline, TrendIncreasing, TrendIncreasing, TrendSteady, TrendDecreasing}
	got := trendLabels(t, readings, 0.5)
	for i, w := range want {
		if got[i] != w {
			t.Errorf("reading %d = %s, want %s", i, got[i], w)
		}
	}
}

func TestAbstractTrendsEdgeCases(t *testing.T) {
	if got := trendLabels(t, []Observation{mkObs(0, 1)}, 0.5); got[0] != TrendBaseline {
		t.Errorf("single observation = %v, want baseline", got)
	}
	// Same-timestamp observations: zero elapsed time counts as steady.
	if got := trendLabels(t, []Observation{mkObs(0, 1), mkObs(0, 100)}, 0.5); got[1] != TrendSteady {
		t.Errorf("zero-elapsed = %v, want baseline then steady", got)
	}
}
