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

// cardinalityStep derives an integer column (named out) holding the
// 1-based visit number of each row within its patient group, ordered by
// the time column. Rows with a missing patient id or time receive NA
// cardinality.
func cardinalityStep(patientCol, timeCol, out string) Step {
	return Step{
		Name:   fmt.Sprintf("cardinality[%s]", out),
		Output: storage.Field{Name: out, Kind: value.IntKind},
		Inputs: []string{patientCol, timeCol},
		Derive: func(n int, in []storage.Column, card storage.Column) error {
			if in[1].Kind() != value.TimeKind {
				return fmt.Errorf("etl: time column %q has kind %v, want time", timeCol, in[1].Kind())
			}
			for _, no := range visitNumbers(n, in[0], in[1]) {
				v := value.NA()
				if no > 0 {
					v = value.Int(no)
				}
				if err := card.Append(v); err != nil {
					return err
				}
			}
			return nil
		},
	}
}

// visitNumbers returns the visit number of each of n rows, 0 where it is
// NA.
func visitNumbers(n int, pids, times storage.Column) []int64 {
	type visit struct {
		row int
		at  value.Value
	}
	byPatient := make(map[value.Value][]visit)
	for i := 0; i < n; i++ {
		p := pids.Value(i)
		at := times.Value(i)
		if p.IsNA() || at.IsNA() {
			continue
		}
		byPatient[p] = append(byPatient[p], visit{row: i, at: at})
	}
	card := make([]int64, n)
	for _, visits := range byPatient {
		sort.SliceStable(visits, func(a, b int) bool {
			return visits[a].at.Less(visits[b].at)
		})
		for k, v := range visits {
			card[v.row] = int64(k + 1)
		}
	}
	return card
}
