package etl

import (
	"errors"
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
		"Time per ETL step, including retries.",
		nil,
		"step")
	metricRetries = obs.Default().CounterVec(
		"ddgms_etl_retries_total",
		"Transient-failure retries per ETL step.",
		"step")
)

// Pipeline is an ordered list of transformation steps applied to a flat
// clinical table before warehouse loading. Steps run in the order added;
// each receives the table produced by its predecessor.
type Pipeline struct {
	steps []Step
	retry RetryPolicy
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

// AddImputeMean appends a mean-imputation step.
func (p *Pipeline) AddImputeMean(column string) *Pipeline {
	return p.Add(Step{
		Name: fmt.Sprintf("impute-mean[%s]", column),
		Apply: func(t *storage.Table) (*storage.Table, error) {
			_, err := ImputeMean(t, column)
			return t, err
		},
	})
}

// AddImputeMode appends a mode-imputation step.
func (p *Pipeline) AddImputeMode(column string) *Pipeline {
	return p.Add(Step{
		Name: fmt.Sprintf("impute-mode[%s]", column),
		Apply: func(t *storage.Table) (*storage.Table, error) {
			_, err := ImputeMode(t, column)
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

// transientError marks an error as transient: the step that produced it
// may succeed if retried (e.g. a source fetch hitting a flaky share).
type transientError struct{ err error }

func (e *transientError) Error() string { return e.err.Error() }
func (e *transientError) Unwrap() error { return e.err }

// Transient wraps err so the pipeline retry policy treats the failure as
// retryable. A nil err returns nil.
func Transient(err error) error {
	if err == nil {
		return nil
	}
	return &transientError{err: err}
}

// IsTransient reports whether err (or anything it wraps) was marked with
// Transient.
func IsTransient(err error) bool {
	var te *transientError
	return errors.As(err, &te)
}

// RetryPolicy controls how Run retries steps that fail with a transient
// error. The zero value disables retries.
type RetryPolicy struct {
	// MaxAttempts is the total number of tries per step, including the
	// first. Values below 1 are treated as 1.
	MaxAttempts int
	// BaseDelay is the sleep before the first retry; each subsequent
	// retry doubles it, capped at MaxDelay (when MaxDelay > 0).
	BaseDelay time.Duration
	MaxDelay  time.Duration
	// Sleep is called between attempts; tests can stub it. Nil means
	// time.Sleep.
	Sleep func(time.Duration)
}

// WithRetry sets the retry policy applied by Run to transient step
// failures.
func (p *Pipeline) WithRetry(r RetryPolicy) *Pipeline {
	p.retry = r
	return p
}

// Delay returns the backoff before retry attempt (0-based): BaseDelay
// doubled per attempt, capped at MaxDelay when set.
func (r RetryPolicy) Delay(attempt int) time.Duration {
	d := r.BaseDelay << uint(attempt)
	if r.MaxDelay > 0 && d > r.MaxDelay {
		d = r.MaxDelay
	}
	return d
}

// backoff sleeps for Delay(attempt) through the policy's Sleep seam
// (time.Sleep when nil).
func (r RetryPolicy) backoff(attempt int) {
	d := r.Delay(attempt)
	if d <= 0 {
		return
	}
	if r.Sleep != nil {
		r.Sleep(d)
		return
	}
	time.Sleep(d)
}

// Run executes the pipeline over a copy of the input table and returns the
// transformed table. The input is never modified.
//
// Steps failing with an error marked Transient are retried with
// exponential backoff per the pipeline's RetryPolicy. Each attempt runs on
// a fresh clone of the step's input, so a step that mutated the table
// before failing cannot leak a half-applied transform into the retry.
func (p *Pipeline) Run(t *storage.Table) (*storage.Table, error) {
	cur := t.Clone()
	attempts := p.retry.MaxAttempts
	if attempts < 1 {
		attempts = 1
	}
	for _, s := range p.steps {
		var next *storage.Table
		var err error
		stepStart := time.Now()
		for attempt := 0; attempt < attempts; attempt++ {
			if attempt > 0 {
				metricRetries.WithLabelValues(s.Name).Inc()
				p.retry.backoff(attempt - 1)
			}
			in := cur
			if attempts > 1 {
				in = cur.Clone()
			}
			next, err = s.Apply(in)
			if err == nil || !IsTransient(err) {
				break
			}
		}
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
