package exec

import (
	"fmt"
	"math"
	"strings"

	"github.com/ddgms/ddgms/internal/value"
)

// AggKind selects the aggregate computed over a group. It lives in the
// execution core so every query layer (storage, cube, flatquery, dgsql)
// shares one set of aggregate semantics; internal/storage re-exports it
// under its historical name.
type AggKind uint8

// Supported aggregates. CountAgg counts non-NA values of the measure
// column (or rows if there is no measure); DistinctAgg counts distinct
// non-NA values.
const (
	CountAgg AggKind = iota
	SumAgg
	AvgAgg
	MinAgg
	MaxAgg
	DistinctAgg
)

// String returns the conventional lower-case aggregate name.
func (a AggKind) String() string {
	switch a {
	case CountAgg:
		return "count"
	case SumAgg:
		return "sum"
	case AvgAgg:
		return "avg"
	case MinAgg:
		return "min"
	case MaxAgg:
		return "max"
	case DistinctAgg:
		return "distinct"
	}
	return fmt.Sprintf("AggKind(%d)", uint8(a))
}

// ParseAggKind converts an aggregate name ("count", "sum", ...) to its
// AggKind.
func ParseAggKind(s string) (AggKind, error) {
	switch strings.ToLower(s) {
	case "count":
		return CountAgg, nil
	case "sum":
		return SumAgg, nil
	case "avg", "mean":
		return AvgAgg, nil
	case "min":
		return MinAgg, nil
	case "max":
		return MaxAgg, nil
	case "distinct":
		return DistinctAgg, nil
	}
	return CountAgg, fmt.Errorf("exec: unknown aggregate %q", s)
}

// ResultKind reports the value kind an aggregate produces: Int for
// count/distinct, Float otherwise.
func ResultKind(k AggKind) value.Kind {
	switch k {
	case CountAgg, DistinctAgg:
		return value.IntKind
	}
	return value.FloatKind
}

// Measure provides per-row values for one aggregate input. storage.Column
// and *CodedColumn both satisfy it.
type Measure interface {
	Value(i int) value.Value
}

// FloatMeasure is a Measure whose non-NA values are all float-coercible,
// letting the kernel accumulate sum/min/max without materialising a
// value.Value per row. AllFloat gates the fast path: implementations
// whose payload kind is not coercible (time columns) report false and
// the kernel falls back to Value.
type FloatMeasure interface {
	Measure
	// FloatAt returns row i as a float; ok is false when the row is NA.
	FloatAt(i int) (f float64, ok bool)
	// AllFloat reports whether every non-NA row is float-coercible.
	AllFloat() bool
}

// AggState accumulates one aggregate over one group. Its semantics are
// the single source of truth previously duplicated as storage.aggState
// and cube.cellAgg: NA measure values are ignored; Count counts observed
// (non-NA) values, or raw rows when the aggregate has no measure; Sum,
// Min and Max only see float-coercible values but Any/Count reflect every
// non-NA observation.
type AggState struct {
	Kind     AggKind
	Count    int64
	Sum      float64
	Min, Max float64
	Seen     map[value.Value]struct{}
	// Distinct is the finalised distinct count of a sealed state: the
	// dense kernel accumulates distinct measures as bitsets over
	// dictionary codes in its arena and emits only the popcount, never a
	// Seen map. A sealed state (Kind == DistinctAgg, Seen == nil) can be
	// finalised and cloned but not merged or unmerged — the lattice never
	// caches distinct measures (Mergeable excludes them), so no merge
	// path ever sees one.
	Distinct int64
	Any      bool
	// Rows counts every physical row routed to this group, NA measures
	// included. Incremental cube maintenance needs it to tell "group whose
	// observations are all NA" (Rows > 0, Count == 0) apart from "group
	// with no surviving rows at all" (Rows == 0), which must be dropped.
	Rows int64
}

// NewAggState creates an empty accumulator for the given aggregate.
func NewAggState(kind AggKind) *AggState {
	st := &AggState{Kind: kind, Min: math.Inf(1), Max: math.Inf(-1)}
	if kind == DistinctAgg {
		st.Seen = make(map[value.Value]struct{})
	}
	return st
}

// ObserveRow records one row for a measure-less (row count) aggregate.
func (st *AggState) ObserveRow() { st.Rows++; st.Count++; st.Any = true }

// Observe records one measure value. NA is ignored by the aggregate but
// still counted as a routed row.
func (st *AggState) Observe(v value.Value) {
	st.Rows++
	if v.IsNA() {
		return
	}
	st.Count++
	st.Any = true
	if st.Kind == DistinctAgg {
		st.Seen[v] = struct{}{}
		return
	}
	if f, ok := v.AsFloat(); ok {
		st.Sum += f
		if f < st.Min {
			st.Min = f
		}
		if f > st.Max {
			st.Max = f
		}
	}
}

// Merge folds another partial accumulator of the same kind into st. This
// is the worker-merge step of the parallel kernel; it is exact for every
// aggregate (distinct merges the seen sets, avg merges sum and count).
func (st *AggState) Merge(o *AggState) {
	st.Rows += o.Rows
	st.Count += o.Count
	st.Sum += o.Sum
	if o.Min < st.Min {
		st.Min = o.Min
	}
	if o.Max > st.Max {
		st.Max = o.Max
	}
	st.Any = st.Any || o.Any
	if st.Kind == DistinctAgg {
		if st.Seen == nil || o.Seen == nil {
			panic("exec: Merge on a sealed distinct state (kernel bitset output); distinct states cannot be re-merged")
		}
		for v := range o.Seen {
			st.Seen[v] = struct{}{}
		}
	}
}

// Mergeable reports whether the aggregate supports exact retraction via
// Unmerge, i.e. whether incremental maintenance can subtract a delta
// instead of re-scanning. Count, sum and avg are additive; min/max would
// need the retracted value's rank and distinct would need per-value
// multiplicity, so they re-scan.
func Mergeable(k AggKind) bool {
	switch k {
	case CountAgg, SumAgg, AvgAgg:
		return true
	}
	return false
}

// Unmerge retracts a previously merged partial accumulator of the same
// kind from st. It is exact only for Mergeable kinds (count/sum/avg run
// entirely on Count and Sum); callers must not unmerge min/max/distinct
// states. Any is recomputed from the surviving count so an emptied group
// finalises back to NA.
func (st *AggState) Unmerge(o *AggState) {
	st.Rows -= o.Rows
	st.Count -= o.Count
	st.Sum -= o.Sum
	st.Any = st.Count > 0
}

// Clone returns an independent copy of st (the distinct set, when
// present, is deep-copied).
func (st *AggState) Clone() *AggState {
	c := *st
	if st.Seen != nil {
		c.Seen = make(map[value.Value]struct{}, len(st.Seen))
		for v := range st.Seen {
			c.Seen[v] = struct{}{}
		}
	}
	return &c
}

// Result finalises the aggregate. Empty groups yield NA for sum/avg/min/
// max and 0 for count/distinct.
func (st *AggState) Result() value.Value {
	switch st.Kind {
	case CountAgg:
		return value.Int(st.Count)
	case DistinctAgg:
		if st.Seen == nil {
			return value.Int(st.Distinct)
		}
		return value.Int(int64(len(st.Seen)))
	case SumAgg:
		if !st.Any {
			return value.NA()
		}
		return value.Float(st.Sum)
	case AvgAgg:
		if st.Count == 0 {
			return value.NA()
		}
		return value.Float(st.Sum / float64(st.Count))
	case MinAgg:
		if !st.Any {
			return value.NA()
		}
		return value.Float(st.Min)
	case MaxAgg:
		if !st.Any {
			return value.NA()
		}
		return value.Float(st.Max)
	}
	return value.NA()
}
