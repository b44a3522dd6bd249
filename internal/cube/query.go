package cube

import (
	"fmt"
	"strings"

	"github.com/ddgms/ddgms/internal/storage"
	"github.com/ddgms/ddgms/internal/value"
)

// AttrRef names one dimension attribute, e.g.
// {Dim: "PersonalInformation", Attr: "AgeBand10"}.
type AttrRef struct {
	Dim  string
	Attr string
}

// String renders the reference in MDX-like bracket form.
func (r AttrRef) String() string { return fmt.Sprintf("[%s].[%s]", r.Dim, r.Attr) }

// Slicer restricts facts to those whose attribute value is in Values — the
// WHERE clause of an OLAP query (the paper's "slicing" operation).
type Slicer struct {
	Ref    AttrRef
	Values []value.Value
}

// MeasureRef selects what is aggregated per cell. Exactly one of Column
// (a fact measure) or Attr (a dimension attribute, for Count/Distinct
// aggregates such as the paper's distinct-patient counts) may be set;
// with neither set, CountAgg counts fact rows.
type MeasureRef struct {
	Agg    storage.AggKind
	Column string
	Attr   *AttrRef
}

// String renders the measure for captions.
func (m MeasureRef) String() string {
	switch {
	case m.Column != "":
		return fmt.Sprintf("%s(%s)", m.Agg, m.Column)
	case m.Attr != nil:
		return fmt.Sprintf("%s(%s)", m.Agg, m.Attr)
	}
	return "count(*)"
}

// check reports a measure the engine cannot aggregate. It reads no fact
// data, so the lattice applies it before matching: an invalid measure
// renders the same String as a valid one (sum with no column reads
// "count(*)") and must not be answered from that one's cached groups.
func (m MeasureRef) check() error {
	switch {
	case m.Column != "" && m.Attr != nil:
		return fmt.Errorf("cube: measure cannot name both a column and an attribute")
	case m.Attr != nil && m.Agg != storage.CountAgg && m.Agg != storage.DistinctAgg:
		return fmt.Errorf("cube: attribute measures support count/distinct only, got %s", m.Agg)
	case m.Column == "" && m.Attr == nil && m.Agg != storage.CountAgg:
		return fmt.Errorf("cube: aggregate %s requires a measure column", m.Agg)
	}
	return nil
}

// Query is one multidimensional aggregation: attribute tuples on the row
// and column axes, slicers restricting the fact set, and a measure.
type Query struct {
	Rows    []AttrRef
	Cols    []AttrRef
	Slicers []Slicer
	Measure MeasureRef
	// IncludeMissing keeps facts whose axis attribute is NA/NoKey, grouped
	// under an "NA" coordinate; by default such facts are dropped, matching
	// BI-tool behaviour.
	IncludeMissing bool
}

// CellSet is the result of a query: one header tuple per row and column
// position, and a dense cell matrix. A cell is NA when no fact fell into
// that coordinate (or the aggregate of an empty measure set is undefined).
type CellSet struct {
	RowAttrs   []AttrRef
	ColAttrs   []AttrRef
	RowHeaders [][]value.Value
	ColHeaders [][]value.Value
	Cells      [][]value.Value
	Measure    MeasureRef
}

// Rows returns the number of result rows.
func (c *CellSet) Rows() int { return len(c.RowHeaders) }

// Columns returns the number of result columns.
func (c *CellSet) Columns() int { return len(c.ColHeaders) }

// Cell returns the aggregate at (row, col).
func (c *CellSet) Cell(row, col int) value.Value {
	return c.Cells[row][col]
}

// CellFloat returns the numeric content of a cell, or 0 for NA cells —
// convenient for chart rendering where empty means zero height.
func (c *CellSet) CellFloat(row, col int) float64 {
	f, ok := c.Cells[row][col].AsFloat()
	if !ok {
		return 0
	}
	return f
}

// RowLabel renders the header tuple of a result row.
func (c *CellSet) RowLabel(row int) string {
	return tupleLabel(c.RowHeaders[row])
}

// ColLabel renders the header tuple of a result column.
func (c *CellSet) ColLabel(col int) string {
	return tupleLabel(c.ColHeaders[col])
}

func tupleLabel(vals []value.Value) string {
	if len(vals) == 0 {
		return "(all)"
	}
	parts := make([]string, len(vals))
	for i, v := range vals {
		parts[i] = v.String()
	}
	return strings.Join(parts, " / ")
}

// Total sums all numeric cells (NA cells contribute 0).
func (c *CellSet) Total() float64 {
	var t float64
	for i := range c.Cells {
		for j := range c.Cells[i] {
			if f, ok := c.Cells[i][j].AsFloat(); ok {
				t += f
			}
		}
	}
	return t
}

// Pivot transposes the cell set: rows become columns and vice versa.
func (c *CellSet) Pivot() *CellSet {
	out := &CellSet{
		RowAttrs:   append([]AttrRef(nil), c.ColAttrs...),
		ColAttrs:   append([]AttrRef(nil), c.RowAttrs...),
		RowHeaders: append([][]value.Value(nil), c.ColHeaders...),
		ColHeaders: append([][]value.Value(nil), c.RowHeaders...),
		Measure:    c.Measure,
	}
	out.Cells = make([][]value.Value, len(c.ColHeaders))
	for j := range c.ColHeaders {
		out.Cells[j] = make([]value.Value, len(c.RowHeaders))
		for i := range c.RowHeaders {
			out.Cells[j][i] = c.Cells[i][j]
		}
	}
	return out
}
