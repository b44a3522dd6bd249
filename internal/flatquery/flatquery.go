// Package flatquery implements the no-warehouse baseline: multivariate
// aggregation queries answered by direct filtered scans over the flat
// (un-dimensionalised) clinical table. It is the comparator for the
// paper's central claim that a data-warehouse intermediary makes
// multivariate exploration practical — benchmark B1 runs the same queries
// through this package and through the cube engine.
package flatquery

import (
	"context"
	"fmt"

	"github.com/ddgms/ddgms/internal/exec"
	"github.com/ddgms/ddgms/internal/obs"
	"github.com/ddgms/ddgms/internal/storage"
	"github.com/ddgms/ddgms/internal/value"
)

// Filter keeps rows whose column value is one of Values.
type Filter struct {
	Column string
	Values []value.Value
}

// Query is a flat aggregation: group-by columns split between two axes (to
// mirror the cube API), filters, and one aggregate.
type Query struct {
	Rows    []string
	Cols    []string
	Filters []Filter
	Agg     storage.AggKind
	Measure string // measure column; empty means count rows
}

// Result is the flat analogue of a cell set: one grouped table with
// row-axis columns, column-axis columns and an "agg" column.
type Result struct {
	Grouped *storage.Table
	AggName string
}

// ExecuteCtx answers the query with a single filtered scan on the shared
// execution kernel: no warehouse, no bitmap indexes, no aggregate caching.
// Filters are evaluated as allowed-code sets over each column's cached
// dictionary (one set lookup per row instead of per-row value equality),
// and no intermediate filtered table is materialised. Rows with NA in any
// grouping column are dropped, matching the cube engine's default.
//
// The kernel scan checks ctx cooperatively and charges any govern.Budget
// it carries, so a cancelled or over-budget baseline scan stops
// mid-flight. When ctx carries a trace span, flatquery.compile (filter
// compilation) and flatquery.group (the kernel's phases beneath it) are
// recorded under it.
func ExecuteCtx(ctx context.Context, t *storage.Table, q Query) (*Result, error) {
	type codeFilter struct {
		codes   []uint32
		allowed []bool // indexed by dictionary code
	}
	compile := obs.SpanFromContext(ctx).Start("flatquery.compile")
	defer compile.End() // no-op after the explicit End below; closes the span on error returns
	filters := make([]codeFilter, len(q.Filters))
	for k, f := range q.Filters {
		if len(f.Values) == 0 {
			return nil, fmt.Errorf("flatquery: filter on %q has no values", f.Column)
		}
		dict, err := t.Dict(f.Column)
		if err != nil {
			return nil, fmt.Errorf("flatquery: unknown filter column %q", f.Column)
		}
		allowed := make([]bool, dict.Card())
		for code, v := range dict.Values() {
			for _, want := range f.Values {
				if v.Equal(want) {
					allowed[code] = true
					break
				}
			}
		}
		filters[k] = codeFilter{codes: dict.Codes(), allowed: allowed}
	}
	groupCols := append(append([]string{}, q.Rows...), q.Cols...)
	groupCodes := make([][]uint32, len(groupCols))
	for k, c := range groupCols {
		dict, err := t.Dict(c)
		if err != nil {
			return nil, fmt.Errorf("flatquery: unknown group column %q", c)
		}
		groupCodes[k] = dict.Codes()
	}
	compile.Annotate("filters", len(filters))
	compile.End()

	pred := func(_ *storage.Table, i int) bool {
		for _, f := range filters {
			if !f.allowed[f.codes[i]] {
				return false
			}
		}
		for _, codes := range groupCodes {
			if codes[i] == exec.NACode {
				return false
			}
		}
		return true
	}

	aggName := "agg"
	gctx, groupSp := obs.StartSpan(ctx, "flatquery.group")
	grouped, err := t.GroupByFiltered(gctx, groupCols, []storage.AggSpec{
		{Kind: q.Agg, Column: q.Measure, As: aggName},
	}, pred)
	groupSp.End()
	if err != nil {
		return nil, fmt.Errorf("flatquery: %w", err)
	}
	return &Result{Grouped: grouped, AggName: aggName}, nil
}
