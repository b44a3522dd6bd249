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
// Each filter becomes an allowed-code set over its column's cached
// dictionary, and so does the rule that drops rows with NA in any
// grouping column (matching the cube engine's default); the sets compile
// to one row selection (exec.SelectRows) that the kernel scan reads, and
// no intermediate filtered table is materialised.
//
// The kernel scan checks ctx cooperatively and charges any govern.Budget
// it carries, so a cancelled or over-budget baseline scan stops
// mid-flight. When ctx carries a trace span, flatquery.compile (the
// selection) and flatquery.group (the kernel's phases beneath it) are
// recorded under it.
func ExecuteCtx(ctx context.Context, t *storage.Table, q Query) (*Result, error) {
	compile := obs.SpanFromContext(ctx).Start("flatquery.compile")
	defer compile.End() // no-op after the explicit End below; closes the span on error returns
	groupCols := append(append([]string{}, q.Rows...), q.Cols...)
	sets := make([]exec.CodeSet, 0, len(q.Filters)+len(groupCols))
	for _, f := range q.Filters {
		if len(f.Values) == 0 {
			return nil, fmt.Errorf("flatquery: filter on %q has no values", f.Column)
		}
		dict, err := t.Dict(f.Column)
		if err != nil {
			return nil, fmt.Errorf("flatquery: unknown filter column %q", f.Column)
		}
		sets = append(sets, exec.InValues(dict, f.Values))
	}
	for _, c := range groupCols {
		dict, err := t.Dict(c)
		if err != nil {
			return nil, fmt.Errorf("flatquery: unknown group column %q", c)
		}
		sets = append(sets, exec.NotNA(dict))
	}
	rows := exec.SelectRows(t.Len(), sets)
	compile.Annotate("filters", len(q.Filters))
	compile.End()

	aggName := "agg"
	gctx, groupSp := obs.StartSpan(ctx, "flatquery.group")
	grouped, err := t.GroupBy(gctx, groupCols, []storage.AggSpec{
		{Kind: q.Agg, Column: q.Measure, As: aggName},
	}, rows)
	groupSp.End()
	if err != nil {
		return nil, fmt.Errorf("flatquery: %w", err)
	}
	return &Result{Grouped: grouped, AggName: aggName}, nil
}
