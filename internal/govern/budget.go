package govern

import (
	"context"
	"fmt"
	"sync/atomic"
)

// Budget is a per-query resource ceiling, charged cooperatively by the
// execution kernel as work happens: rows offered to a scan, group-by
// cells created, and estimated hash-map bytes on the wide (over-64-bit
// key) path. A zero limit means unlimited in that dimension. Charging
// is atomic, so one budget can be shared by every worker goroutine of a
// parallel scan; the first charge that crosses a ceiling returns a
// *BudgetError and the kernel aborts the query.
//
// A nil *Budget is valid and charges nothing — the unguarded fast path.
type Budget struct {
	maxRows, maxCells, maxBytes int64
	rows, cells, bytes          atomic.Int64
}

// NewBudget creates a budget. Zero (or negative) limits are unlimited.
func NewBudget(maxRows, maxCells, maxBytes int64) *Budget {
	return &Budget{maxRows: maxRows, maxCells: maxCells, maxBytes: maxBytes}
}

// BudgetError reports which ceiling a query crossed.
type BudgetError struct {
	Dim   string // "rows", "cells" or "bytes"
	Limit int64
	Used  int64
}

func (e *BudgetError) Error() string {
	return fmt.Sprintf("govern: query budget exceeded: %s limit %d reached (used %d)", e.Dim, e.Limit, e.Used)
}

// Is makes errors.Is(err, ErrBudgetExceeded) match every BudgetError.
func (e *BudgetError) Is(target error) bool { return target == ErrBudgetExceeded }

// charge adds n to used and trips when the ceiling is crossed.
func charge(used *atomic.Int64, limit int64, n int64, dim string) error {
	if limit <= 0 {
		used.Add(n)
		return nil
	}
	total := used.Add(n)
	if total > limit {
		metricBudgetExceeded.WithLabelValues(dim).Inc()
		return &BudgetError{Dim: dim, Limit: limit, Used: total}
	}
	return nil
}

// AddRows charges n scanned rows.
func (b *Budget) AddRows(n int64) error {
	if b == nil {
		return nil
	}
	return charge(&b.rows, b.maxRows, n, "rows")
}

// AddCells charges n group-by cells (distinct groups materialised).
func (b *Budget) AddCells(n int64) error {
	if b == nil {
		return nil
	}
	return charge(&b.cells, b.maxCells, n, "cells")
}

// AddBytes charges n estimated accumulator bytes (the wide path's
// string-keyed hash map, whose entries are unbounded in size).
func (b *Budget) AddBytes(n int64) error {
	if b == nil {
		return nil
	}
	return charge(&b.bytes, b.maxBytes, n, "bytes")
}

// Used reports the charged totals (rows, cells, bytes) so far.
func (b *Budget) Used() (rows, cells, bytes int64) {
	if b == nil {
		return 0, 0, 0
	}
	return b.rows.Load(), b.cells.Load(), b.bytes.Load()
}

// budgetKey carries a *Budget through a context.
type budgetKey struct{}

// WithBudget attaches a query budget to a context. The execution kernel
// picks it up via BudgetFrom, so budgets flow through the whole query
// path without widening any signature.
func WithBudget(ctx context.Context, b *Budget) context.Context {
	if b == nil {
		return ctx
	}
	return context.WithValue(ctx, budgetKey{}, b)
}

// BudgetFrom extracts the query budget, or nil (charge-nothing) when
// the context carries none.
func BudgetFrom(ctx context.Context) *Budget {
	b, _ := ctx.Value(budgetKey{}).(*Budget)
	return b
}
