package storage

import (
	"context"
	"fmt"
	"sort"

	"github.com/ddgms/ddgms/internal/exec"
	"github.com/ddgms/ddgms/internal/value"
)

// Project returns a new table containing only the named columns, in the
// given order, over the rows the selection takes (see exec.SelectRows;
// nil takes every row), in their original order.
func (t *Table) Project(rows []uint64, names ...string) (*Table, error) {
	schema, err := t.schema.Select(names...)
	if err != nil {
		return nil, err
	}
	idx := make([]int, len(names))
	for k, n := range names {
		idx[k], _ = t.schema.Lookup(n)
	}
	out := MustTable(schema)
	row := make([]value.Value, len(names))
	for i := 0; i < t.n; i++ {
		if !exec.Selected(rows, i) {
			continue
		}
		for k, j := range idx {
			row[k] = t.cols[j].Value(i)
		}
		if err := out.AppendRow(row); err != nil {
			return nil, err
		}
	}
	return out, nil
}

// SortKey names a column and direction for Sort.
type SortKey struct {
	Column     string
	Descending bool
}

// Sort returns a new table with rows stably ordered by the given keys.
func (t *Table) Sort(keys ...SortKey) (*Table, error) {
	idx := make([]int, len(keys))
	for k, key := range keys {
		j, ok := t.schema.Lookup(key.Column)
		if !ok {
			return nil, fmt.Errorf("storage: unknown sort column %q", key.Column)
		}
		idx[k] = j
	}
	order := make([]int, t.n)
	for i := range order {
		order[i] = i
	}
	sort.SliceStable(order, func(a, b int) bool {
		ra, rb := order[a], order[b]
		for k, j := range idx {
			cmp := t.cols[j].Value(ra).Compare(t.cols[j].Value(rb))
			if keys[k].Descending {
				cmp = -cmp
			}
			if cmp != 0 {
				return cmp < 0
			}
		}
		return false
	})
	out := MustTable(t.schema)
	for _, i := range order {
		if err := out.AppendRow(t.Row(i)); err != nil {
			return nil, err
		}
	}
	return out, nil
}

// AggKind selects the aggregate computed over a group. It is the
// execution core's AggKind re-exported under its historical name, so
// every layer shares one set of aggregate semantics.
type AggKind = exec.AggKind

// Supported aggregates. CountAgg counts non-NA values of the measure column
// (or rows if the measure is empty); DistinctAgg counts distinct non-NA
// values.
const (
	CountAgg    = exec.CountAgg
	SumAgg      = exec.SumAgg
	AvgAgg      = exec.AvgAgg
	MinAgg      = exec.MinAgg
	MaxAgg      = exec.MaxAgg
	DistinctAgg = exec.DistinctAgg
)

// ParseAggKind converts an aggregate name ("count", "sum", ...) to its
// AggKind.
func ParseAggKind(s string) (AggKind, error) {
	k, err := exec.ParseAggKind(s)
	if err != nil {
		return k, fmt.Errorf("storage: unknown aggregate %q", s)
	}
	return k, nil
}

// AggSpec is one aggregate to compute per group: the aggregate kind, the
// measure column it reads (may be empty for CountAgg, meaning row count)
// and the output column name.
type AggSpec struct {
	Kind   AggKind
	Column string
	As     string
}

// GroupBy groups the rows the selection takes (see exec.SelectRows; nil
// takes every row) by the named key columns and computes the requested
// aggregates per group. The result has the key columns followed by one
// column per AggSpec, with groups ordered by key values ascending.
//
// Grouping runs on the shared execution kernel: key columns are
// dictionary-encoded (cached on the column), groups are keyed on packed
// integer codes and aggregated in parallel, and the selection is read
// inside the scan, so no filtered table is materialised. The scan checks
// ctx cooperatively, charges any govern.Budget it carries and records its
// phases under any span it carries.
func (t *Table) GroupBy(ctx context.Context, keys []string, aggs []AggSpec, rows []uint64) (*Table, error) {
	keyIdx := make([]int, len(keys))
	for k, name := range keys {
		j, ok := t.schema.Lookup(name)
		if !ok {
			return nil, fmt.Errorf("storage: unknown group column %q", name)
		}
		keyIdx[k] = j
	}
	in := exec.GroupInput{
		NumRows: t.n,
		Keys:    make([]*exec.CodedColumn, len(keys)),
		Aggs:    make([]exec.AggInput, len(aggs)),
		Rows:    rows,
	}
	for k, j := range keyIdx {
		in.Keys[k] = t.cols[j].Dict()
	}
	for k, a := range aggs {
		in.Aggs[k].Kind = a.Kind
		if a.Column == "" {
			if a.Kind != CountAgg {
				return nil, fmt.Errorf("storage: aggregate %s requires a column", a.Kind)
			}
			continue // nil measure: count rows
		}
		j, ok := t.schema.Lookup(a.Column)
		if !ok {
			return nil, fmt.Errorf("storage: unknown aggregate column %q", a.Column)
		}
		if a.Kind == DistinctAgg {
			// Distinct aggregates read the coded view, so the dense
			// kernel can count distinct dictionary codes in bitsets
			// instead of materialising per-group Seen maps.
			in.Aggs[k].Measure = t.cols[j].Dict()
			continue
		}
		in.Aggs[k].Measure = t.cols[j]
	}
	groups, err := exec.GroupBy(ctx, in)
	if err != nil {
		return nil, fmt.Errorf("storage: %w", err)
	}

	fields := make([]Field, 0, len(keys)+len(aggs))
	for k, name := range keys {
		fields = append(fields, Field{Name: name, Kind: t.schema.Field(keyIdx[k]).Kind})
	}
	for _, a := range aggs {
		name := a.As
		if name == "" {
			name = a.Kind.String()
			if a.Column != "" {
				name += "_" + a.Column
			}
		}
		fields = append(fields, Field{Name: name, Kind: exec.ResultKind(a.Kind)})
	}
	schema, err := NewSchema(fields...)
	if err != nil {
		return nil, err
	}
	out := MustTable(schema)
	row := make([]value.Value, len(fields))
	for _, g := range groups {
		copy(row, g.Tuple)
		for k, st := range g.States {
			row[len(keys)+k] = st.Result()
		}
		if err := out.AppendRow(row); err != nil {
			return nil, err
		}
	}
	return out, nil
}
