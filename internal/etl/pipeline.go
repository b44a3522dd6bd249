package etl

import (
	"fmt"
	"sync/atomic"
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
// each sees the columns its predecessors produced.
//
// A pipeline compiles itself once per input schema into a plan: the
// output schema, and each column step's inputs resolved to column
// positions. Run keeps the plan for the last schema it saw, so a caller
// that feeds tables of one schema (the refresh maintainer's mirror rows)
// pays for name resolution and schema building once, not per batch.
type Pipeline struct {
	steps []Step
	plan  atomic.Pointer[plan]
}

// Step is one named transformation that adds one column: Output names
// the field, Inputs the columns it reads (the input table's or an earlier
// step's), and Derive appends one value per row, in row order, to out, an
// empty column of Output.Kind. in holds the Inputs columns in order, each
// n rows long; Derive must not modify them.
type Step struct {
	Name   string
	Output storage.Field
	Inputs []string
	Derive func(n int, in []storage.Column, out storage.Column) error

	rule *RangeRule // set by AddRangeRule: null out-of-range cells of rule.Column
}

// Add appends a custom step.
func (p *Pipeline) Add(s Step) *Pipeline {
	p.steps = append(p.steps, s)
	p.plan.Store(nil)
	return p
}

// AddRangeRule appends an erroneous-value step nulling values outside
// [min, max].
func (p *Pipeline) AddRangeRule(column string, min, max float64) *Pipeline {
	return p.Add(Step{
		Name: fmt.Sprintf("range[%s]", column),
		rule: &RangeRule{Column: column, Min: min, Max: max},
	})
}

// AddDiscretize appends a step that adds a discretised companion column
// (named out) next to the original continuous column, following the
// paper's practice of duplicating scheme-less attributes: "attributes
// without clinical schemes were duplicated with one having the original
// continuous form and the other discretised".
func (p *Pipeline) AddDiscretize(column, out string, d Discretizer) *Pipeline {
	return p.Add(Step{
		Name:   fmt.Sprintf("discretize[%s->%s]", column, out),
		Output: storage.Field{Name: out, Kind: value.StringKind},
		Inputs: []string{column},
		Derive: func(n int, in []storage.Column, labels storage.Column) error {
			for i := 0; i < n; i++ {
				lv, err := d.Apply(in[0].Value(i))
				if err != nil {
					return fmt.Errorf("etl: step discretize[%s] row %d: %w", column, i, err)
				}
				if err := labels.Append(lv); err != nil {
					return err
				}
			}
			return nil
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
	return p.Add(trendStep(patientCol, timeCol, measureCol, out, epsilonPerDay))
}

// AddCardinality appends a visit-numbering step.
func (p *Pipeline) AddCardinality(patientCol, timeCol, out string) *Pipeline {
	return p.Add(cardinalityStep(patientCol, timeCol, out))
}

// Run executes the pipeline over the input table and returns the
// transformed table. The input is never modified. The output's columns
// that no step wrote are shared with the input: they are the input's own
// column objects, so neither table may be modified while the other is
// in use. A column step's output is a fresh column, and a range rule
// copies its column on the first cell it nulls.
func (p *Pipeline) Run(t *storage.Table) (*storage.Table, error) {
	pl := p.plan.Load()
	if pl == nil || pl.in != t.Schema() {
		var err error
		if pl, err = compile(t.Schema(), p.steps); err != nil {
			return nil, err
		}
		p.plan.Store(pl)
	}
	return pl.run(t)
}

// Steps returns the step names in execution order.
func (p *Pipeline) Steps() []string {
	out := make([]string, len(p.steps))
	for i, s := range p.steps {
		out[i] = s.Name
	}
	return out
}

// plan is a pipeline's steps compiled against one input schema.
type plan struct {
	in, out *storage.Schema
	ops     []op
	maxIn   int // most inputs of any op
}

// op is one compiled column step or range rule.
type op struct {
	step    *Step
	seconds *obs.Histogram
	in      []int // positions of the step's inputs in the output schema
	col     int   // position of the derived column, or of the ruled one
}

// compile plans steps against the input schema in.
func compile(in *storage.Schema, steps []Step) (*plan, error) {
	pl := &plan{in: in}
	fields := in.Fields()
	index := make(map[string]int, len(fields))
	for j, f := range fields {
		index[f.Name] = j
	}
	resolve := func(s *Step, name string) (int, error) {
		j, ok := index[name]
		if !ok {
			return 0, fmt.Errorf("etl: step %s: unknown column %q", s.Name, name)
		}
		return j, nil
	}
	for k := range steps {
		s := &steps[k]
		o := op{step: s, seconds: metricStepSeconds.WithLabelValues(s.Name)}
		var err error
		switch {
		case s.rule != nil:
			o.col, err = resolve(s, s.rule.Column)
		case s.Derive != nil:
			if _, dup := index[s.Output.Name]; dup {
				return nil, fmt.Errorf("etl: step %s: column %q already exists", s.Name, s.Output.Name)
			}
			o.in = make([]int, len(s.Inputs))
			for a := 0; a < len(s.Inputs) && err == nil; a++ {
				o.in[a], err = resolve(s, s.Inputs[a])
			}
			o.col = len(fields)
			index[s.Output.Name] = o.col
			fields = append(fields, s.Output)
			pl.maxIn = max(pl.maxIn, len(o.in))
		default:
			err = fmt.Errorf("etl: step %s has no Derive", s.Name)
		}
		if err != nil {
			return nil, err
		}
		pl.ops = append(pl.ops, o)
	}
	out, err := storage.NewSchema(fields...)
	if err != nil {
		return nil, err
	}
	pl.out = out
	return pl, nil
}

// run executes the plan over t, which must have the plan's input schema.
func (pl *plan) run(t *storage.Table) (*storage.Table, error) {
	n := t.Len()
	cols := make([]storage.Column, pl.out.Len())
	for j := range pl.in.Len() {
		cols[j] = t.ColumnAt(j)
	}
	in := make([]storage.Column, 0, pl.maxIn)
	for _, o := range pl.ops {
		start := time.Now()
		var err error
		if r := o.step.rule; r != nil {
			nullOutOfRange(cols, o.col, *r, t)
		} else {
			in = in[:0]
			for _, j := range o.in {
				in = append(in, cols[j])
			}
			cols[o.col], err = derive(o.step, n, in)
		}
		o.seconds.ObserveSince(start)
		if err != nil {
			return nil, fmt.Errorf("etl: step %s: %w", o.step.Name, err)
		}
	}
	return storage.FromColumns(pl.out, n, cols)
}

// derive builds a column step's output column over n rows.
func derive(s *Step, n int, in []storage.Column) (storage.Column, error) {
	out, err := storage.NewColumn(s.Output.Kind)
	if err != nil {
		return nil, err
	}
	out.Grow(n)
	if err := s.Derive(n, in, out); err != nil {
		return nil, err
	}
	if out.Len() != n {
		return nil, fmt.Errorf("derived %d rows of %q, want %d", out.Len(), s.Output.Name, n)
	}
	return out, nil
}
