package etl

import (
	"github.com/ddgms/ddgms/internal/storage"
	"github.com/ddgms/ddgms/internal/value"
)

// The in-place, single-table forms of the pipeline's steps that the
// tests drive directly. Each runs the step through a one-step pipeline
// and writes the result back into t.

// CleanReport summarises the effect of one cleaning step on a table.
type CleanReport struct {
	Column   string
	Step     string
	Affected int
}

// ApplyRangeRule nulls out-of-range values in place and reports how many
// cells it affected.
func ApplyRangeRule(t *storage.Table, r RangeRule) (CleanReport, error) {
	rep := CleanReport{Column: r.Column, Step: "range-rule"}
	var p Pipeline
	out, err := p.AddRangeRule(r.Column, r.Min, r.Max).Run(t)
	if err != nil {
		return rep, err
	}
	j, _ := t.Schema().Lookup(r.Column)
	for i := 0; i < t.Len(); i++ {
		if out.ColumnAt(j).IsNA(i) && !t.ColumnAt(j).IsNA(i) {
			if err := t.Set(i, r.Column, value.NA()); err != nil {
				return rep, err
			}
			rep.Affected++
		}
	}
	return rep, nil
}

// AssignCardinality adds the visit-number column of
// Pipeline.AddCardinality to t in place.
func AssignCardinality(t *storage.Table, patientCol, timeCol, out string) error {
	return attach(t, cardinalityStep(patientCol, timeCol, out))
}

// assignTrend adds the trend label column of Pipeline.AddTrend to t in
// place.
func assignTrend(t *storage.Table, patientCol, timeCol, measureCol, out string, epsilonPerDay float64) error {
	return attach(t, trendStep(patientCol, timeCol, measureCol, out, epsilonPerDay))
}

// attach runs the column step s over t and adds its column to t.
func attach(t *storage.Table, s Step) error {
	var p Pipeline
	out, err := p.Add(s).Run(t)
	if err != nil {
		return err
	}
	return t.AddColumn(s.Output, out.ColumnAt(out.Schema().Len()-1).Value)
}
