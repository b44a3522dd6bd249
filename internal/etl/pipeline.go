package etl

import (
	"fmt"
	"time"

	"github.com/ddgms/ddgms/internal/obs"
	"github.com/ddgms/ddgms/internal/storage"
	"github.com/ddgms/ddgms/internal/value"
)

// ETL metric families, labelled by step name. Step names are the
// pipeline's declared transforms (a handful per deployment), so the
// label cardinality stays bounded.
var (
	metricStepSeconds = obs.Default().HistogramVec(
		"ddgms_etl_step_seconds",
		"Time per ETL step.",
		nil,
		"step")
)

// Pipeline is an ordered list of transformation steps applied to a flat
// clinical table before warehouse loading. Steps run in the order added;
// each receives the table produced by its predecessor.
type Pipeline struct {
	steps []Step
}

// Step is one named transformation. Apply may modify the table in place
// and/or return a replacement table.
type Step struct {
	Name  string
	Apply func(*storage.Table) (*storage.Table, error)
}

// Add appends a custom step.
func (p *Pipeline) Add(s Step) *Pipeline {
	p.steps = append(p.steps, s)
	return p
}

// AddRangeRule appends an erroneous-value step nulling values outside
// [min, max].
func (p *Pipeline) AddRangeRule(column string, min, max float64) *Pipeline {
	return p.Add(Step{
		Name: fmt.Sprintf("range[%s]", column),
		Apply: func(t *storage.Table) (*storage.Table, error) {
			_, err := ApplyRangeRule(t, RangeRule{Column: column, Min: min, Max: max})
			return t, err
		},
	})
}

// AddDiscretize appends a step that adds a discretised companion column
// (named out) next to the original continuous column, following the
// paper's practice of duplicating scheme-less attributes: "attributes
// without clinical schemes were duplicated with one having the original
// continuous form and the other discretised".
func (p *Pipeline) AddDiscretize(column, out string, d Discretizer) *Pipeline {
	return p.Add(Step{
		Name: fmt.Sprintf("discretize[%s->%s]", column, out),
		Apply: func(t *storage.Table) (*storage.Table, error) {
			col, err := t.Column(column)
			if err != nil {
				return nil, err
			}
			labels := make([]value.Value, t.Len())
			for i := 0; i < t.Len(); i++ {
				lv, err := d.Apply(col.Value(i))
				if err != nil {
					return nil, fmt.Errorf("etl: step discretize[%s] row %d: %w", column, i, err)
				}
				labels[i] = lv
			}
			err = t.AddColumn(storage.Field{Name: out, Kind: value.StringKind}, func(i int) value.Value {
				return labels[i]
			})
			return t, err
		},
	})
}

// AddTrend appends a temporal-trend abstraction step: per patient, visits
// are ordered by the time column and each visit is labelled with the
// trend of the measure since the previous visit (increasing, decreasing
// or steady within epsilonPerDay). A patient's first visit — and any
// visit without a usable predecessor — gets the label "baseline". The
// label column (named out) can then join a warehouse dimension, giving
// OLAP access to disease-course direction.
func (p *Pipeline) AddTrend(patientCol, timeCol, measureCol, out string, epsilonPerDay float64) *Pipeline {
	return p.Add(Step{
		Name: fmt.Sprintf("trend[%s->%s]", measureCol, out),
		Apply: func(t *storage.Table) (*storage.Table, error) {
			return t, assignTrend(t, patientCol, timeCol, measureCol, out, epsilonPerDay)
		},
	})
}

// AddCardinality appends a visit-numbering step.
func (p *Pipeline) AddCardinality(patientCol, timeCol, out string) *Pipeline {
	return p.Add(Step{
		Name: fmt.Sprintf("cardinality[%s]", out),
		Apply: func(t *storage.Table) (*storage.Table, error) {
			return t, AssignCardinality(t, patientCol, timeCol, out)
		},
	})
}

// Run executes the pipeline over a copy of the input table and returns the
// transformed table. The input is never modified.
func (p *Pipeline) Run(t *storage.Table) (*storage.Table, error) {
	cur := t.Clone()
	for _, s := range p.steps {
		stepStart := time.Now()
		next, err := s.Apply(cur)
		metricStepSeconds.WithLabelValues(s.Name).ObserveSince(stepStart)
		if err != nil {
			return nil, fmt.Errorf("etl: step %s: %w", s.Name, err)
		}
		cur = next
	}
	return cur, nil
}

// Steps returns the step names in execution order.
func (p *Pipeline) Steps() []string {
	out := make([]string, len(p.steps))
	for i, s := range p.steps {
		out[i] = s.Name
	}
	return out
}
