package etl

import (
	"github.com/ddgms/ddgms/internal/storage"
	"github.com/ddgms/ddgms/internal/value"
)

// RangeRule declares the physiologically plausible range of a clinical
// measure; values outside [Min, Max] are erroneous (e.g. a negative blood
// pressure, an age of 400) and are replaced with NA so downstream steps
// treat them as missing.
type RangeRule struct {
	Column   string
	Min, Max float64
}

// outOfRange reports whether row i of c holds a number outside the rule's
// range.
func (r RangeRule) outOfRange(c storage.Column, i int) bool {
	f, ok := c.Value(i).AsFloat()
	return ok && (f < r.Min || f > r.Max)
}

// nullOutOfRange nulls the cells of cols[j] outside the rule's range. A
// column still shared with the input table t is copied before its first
// write, so the input is never modified.
func nullOutOfRange(cols []storage.Column, j int, r RangeRule, t *storage.Table) {
	c := cols[j]
	for i := 0; i < c.Len(); i++ {
		if !r.outOfRange(c, i) {
			continue
		}
		if j < t.Schema().Len() && c == t.ColumnAt(j) {
			c = c.Clone()
			cols[j] = c
		}
		c.Set(i, value.NA()) // NA fits every kind
	}
}
