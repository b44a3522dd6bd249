package etl

import (
	"github.com/ddgms/ddgms/internal/storage"
	"github.com/ddgms/ddgms/internal/value"
)

// CleanReport summarises the effect of one cleaning step on a table.
type CleanReport struct {
	Column   string
	Step     string
	Affected int
}

// RangeRule declares the physiologically plausible range of a clinical
// measure; values outside [Min, Max] are erroneous (e.g. a negative blood
// pressure, an age of 400) and are replaced with NA so downstream steps
// treat them as missing.
type RangeRule struct {
	Column   string
	Min, Max float64
}

// ApplyRangeRule nulls out-of-range values in place and reports how many
// cells it affected.
func ApplyRangeRule(t *storage.Table, r RangeRule) (CleanReport, error) {
	rep := CleanReport{Column: r.Column, Step: "range-rule"}
	col, err := t.Column(r.Column)
	if err != nil {
		return rep, err
	}
	for i := 0; i < col.Len(); i++ {
		f, ok := col.Value(i).AsFloat()
		if !ok {
			continue
		}
		if f < r.Min || f > r.Max {
			if err := t.Set(i, r.Column, value.NA()); err != nil {
				return rep, err
			}
			rep.Affected++
		}
	}
	return rep, nil
}
