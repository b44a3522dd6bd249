package etl

import (
	"fmt"
	"sort"

	"github.com/ddgms/ddgms/internal/storage"
	"github.com/ddgms/ddgms/internal/value"
)

// Cardinality (paper §IV.3) is temporal abstraction applied to a group of
// contextually associated variables: when a patient attends the screening
// clinic repeatedly, each attendance's measurements form one test instance,
// and the cardinality dimension numbers those instances per patient so the
// warehouse can distinguish patients from attendances.

// AssignCardinality adds an integer column (named as out) to t holding the
// 1-based visit number of each row within its patient group, ordered by
// the time column. Rows with a missing patient id or time receive NA
// cardinality. The table is modified in place.
func AssignCardinality(t *storage.Table, patientCol, timeCol, out string) error {
	pi, ok := t.Schema().Lookup(patientCol)
	if !ok {
		return fmt.Errorf("etl: unknown patient column %q", patientCol)
	}
	ti, ok := t.Schema().Lookup(timeCol)
	if !ok {
		return fmt.Errorf("etl: unknown time column %q", timeCol)
	}
	if t.Schema().Field(ti).Kind != value.TimeKind {
		return fmt.Errorf("etl: time column %q has kind %v, want time",
			timeCol, t.Schema().Field(ti).Kind)
	}

	type visit struct {
		row int
		at  value.Value
	}
	byPatient := make(map[value.Value][]visit)
	for i := 0; i < t.Len(); i++ {
		p := t.ColumnAt(pi).Value(i)
		at := t.ColumnAt(ti).Value(i)
		if p.IsNA() || at.IsNA() {
			continue
		}
		byPatient[p] = append(byPatient[p], visit{row: i, at: at})
	}
	card := make([]value.Value, t.Len())
	for i := range card {
		card[i] = value.NA()
	}
	for _, visits := range byPatient {
		sort.SliceStable(visits, func(a, b int) bool {
			return visits[a].at.Less(visits[b].at)
		})
		for n, v := range visits {
			card[v.row] = value.Int(int64(n + 1))
		}
	}
	return t.AddColumn(storage.Field{Name: out, Kind: value.IntKind}, func(i int) value.Value {
		return card[i]
	})
}
