package etl

import (
	"fmt"
	"sort"
	"time"

	"github.com/ddgms/ddgms/internal/storage"
	"github.com/ddgms/ddgms/internal/value"
)

// Temporal abstraction (paper §IV.2) derives high-level qualitative
// descriptions from low-level time-stamped quantitative measures: state
// abstraction maps each reading into a qualitative state via a
// discretisation scheme, trend abstraction classifies the local slope, and
// persistence merging collapses consecutive identical states into
// intervals.

// Observation is one time-stamped reading of a variable.
type Observation struct {
	At time.Time
	V  value.Value
}

// Interval is one qualitative abstraction: the variable held State from
// Start to End (inclusive of both observation times).
type Interval struct {
	State      string
	Start, End time.Time
	N          int // number of raw observations covered
}

// sortObservations orders observations by time, in place.
func sortObservations(obs []Observation) {
	sort.SliceStable(obs, func(a, b int) bool { return obs[a].At.Before(obs[b].At) })
}

// AbstractStates maps each observation through the discretizer and merges
// consecutive identical states into intervals (state abstraction followed
// by persistence merging). Observations with NA values are skipped.
func AbstractStates(obs []Observation, d Discretizer) ([]Interval, error) {
	sorted := append([]Observation(nil), obs...)
	sortObservations(sorted)
	var out []Interval
	for _, o := range sorted {
		if o.V.IsNA() {
			continue
		}
		sv, err := d.Apply(o.V)
		if err != nil {
			return nil, fmt.Errorf("etl: state abstraction: %w", err)
		}
		state := sv.String()
		if n := len(out); n > 0 && out[n-1].State == state {
			out[n-1].End = o.At
			out[n-1].N++
			continue
		}
		out = append(out, Interval{State: state, Start: o.At, End: o.At, N: 1})
	}
	return out, nil
}

// Trend labels assigned by Pipeline.AddTrend.
const (
	TrendIncreasing = "increasing"
	TrendDecreasing = "decreasing"
	TrendSteady     = "steady"
)

// TrendBaseline labels a visit with no usable predecessor (the patient's
// first visit, or missing data either side).
const TrendBaseline = "baseline"

// trendStep derives the per-visit trend label column of
// Pipeline.AddTrend.
func trendStep(patientCol, timeCol, measureCol, out string, epsilonPerDay float64) Step {
	return Step{
		Name:   fmt.Sprintf("trend[%s->%s]", measureCol, out),
		Output: storage.Field{Name: out, Kind: value.StringKind},
		Inputs: []string{patientCol, timeCol, measureCol},
		Derive: func(n int, in []storage.Column, trend storage.Column) error {
			if epsilonPerDay < 0 {
				return fmt.Errorf("etl: trend: negative epsilon")
			}
			for _, l := range visitTrends(n, in[0], in[1], in[2], epsilonPerDay) {
				v := value.NA()
				if l != "" {
					v = value.Str(l)
				}
				if err := trend.Append(v); err != nil {
					return err
				}
			}
			return nil
		},
	}
}

// visitTrends returns the trend label of each of n visits, "" where the
// label is NA.
func visitTrends(n int, pids, times, measures storage.Column, epsilonPerDay float64) []string {
	type visit struct {
		row int
		at  time.Time
		v   value.Value
	}
	byPatient := make(map[value.Value][]visit)
	for i := 0; i < n; i++ {
		pid := pids.Value(i)
		at := times.Value(i)
		if pid.IsNA() || at.IsNA() || at.Kind() != value.TimeKind {
			continue
		}
		byPatient[pid] = append(byPatient[pid], visit{row: i, at: at.Time(), v: measures.Value(i)})
	}
	labels := make([]string, n)
	for _, visits := range byPatient {
		sort.SliceStable(visits, func(a, b int) bool { return visits[a].at.Before(visits[b].at) })
		var prev *visit
		for k := range visits {
			cur := &visits[k]
			cf, curOK := cur.v.AsFloat()
			if !curOK {
				continue
			}
			if prev == nil {
				labels[cur.row] = TrendBaseline
				prev = cur
				continue
			}
			pf, _ := prev.v.AsFloat()
			days := cur.at.Sub(prev.at).Hours() / 24
			var slope float64
			if days > 0 {
				slope = (cf - pf) / days
			}
			state := TrendSteady
			switch {
			case slope > epsilonPerDay:
				state = TrendIncreasing
			case slope < -epsilonPerDay:
				state = TrendDecreasing
			}
			labels[cur.row] = state
			prev = cur
		}
	}
	return labels
}
