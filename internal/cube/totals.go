package cube

import "github.com/ddgms/ddgms/internal/value"

// Axis-total and share utilities over cell sets, used by the reporting
// layer to annotate crosstabs the way BI front ends do (row totals,
// column totals, percent-of-total views).

// RowTotals sums each result row (NA cells contribute 0).
func (c *CellSet) RowTotals() []float64 {
	out := make([]float64, c.Rows())
	for i := range out {
		for j := 0; j < c.Columns(); j++ {
			out[i] += c.CellFloat(i, j)
		}
	}
	return out
}

// ColTotals sums each result column (NA cells contribute 0).
func (c *CellSet) ColTotals() []float64 {
	out := make([]float64, c.Columns())
	for j := range out {
		for i := 0; i < c.Rows(); i++ {
			out[j] += c.CellFloat(i, j)
		}
	}
	return out
}

// PercentOfTotal returns a derived cell set whose cells are each cell's
// share of the grand total, in percent. NA cells stay NA. A zero grand
// total yields all-NA cells.
func (c *CellSet) PercentOfTotal() *CellSet {
	total := c.Total()
	return c.derive(func(v value.Value) value.Value {
		f, ok := v.AsFloat()
		if !ok || total == 0 {
			return value.NA()
		}
		return value.Float(100 * f / total)
	})
}

// derive maps every cell through fn into a new cell set.
func (c *CellSet) derive(fn func(value.Value) value.Value) *CellSet {
	out := c.clone()
	for i := range out.Cells {
		for j := range out.Cells[i] {
			out.Cells[i][j] = fn(out.Cells[i][j])
		}
	}
	return out
}

// clone deep-copies the cell matrix (headers are shared; they are never
// mutated).
func (c *CellSet) clone() *CellSet {
	out := *c
	out.Cells = make([][]value.Value, len(c.Cells))
	for i := range c.Cells {
		out.Cells[i] = append([]value.Value(nil), c.Cells[i]...)
	}
	return &out
}
