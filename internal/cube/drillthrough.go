package cube

import (
	"fmt"

	"github.com/ddgms/ddgms/internal/exec"
	"github.com/ddgms/ddgms/internal/value"
)

// DrillThrough is the classic OLAP operation behind "show me the patients
// behind this bar": given a query and one cell coordinate, it returns the
// ordinals of the fact rows that aggregated into that cell. Clinicians
// use it to move from an aggregate anomaly to the underlying attendances.

// DrillThrough returns the fact-row ordinals contributing to the cell at
// (rowTuple, colTuple) of the query's result. Tuple values resolve to
// dictionary codes of the query's axis attributes, and rows are matched
// by code; the query's slicers apply.
func (e *Engine) DrillThrough(q Query, rowTuple, colTuple []value.Value) ([]int, error) {
	if len(rowTuple) != len(q.Rows) {
		return nil, fmt.Errorf("cube: drill-through row tuple has %d values, query has %d row attrs",
			len(rowTuple), len(q.Rows))
	}
	if len(colTuple) != len(q.Cols) {
		return nil, fmt.Errorf("cube: drill-through column tuple has %d values, query has %d column attrs",
			len(colTuple), len(q.Cols))
	}
	axes := append(append([]AttrRef{}, q.Rows...), q.Cols...)
	want := append(append([]value.Value{}, rowTuple...), colTuple...)
	axisCodes := make([][]uint32, len(axes))
	wanted := make([][]bool, len(axes))
	for a, ref := range axes {
		cc, err := e.attrCoded(ref)
		if err != nil {
			return nil, err
		}
		axisCodes[a] = exec.MaterializeCodes(cc)
		wanted[a] = wantedCodes(cc.Values(), want[a:a+1])
	}
	filter, err := e.filterBitmap(q.Slicers)
	if err != nil {
		return nil, err
	}
	var out []int
	n := e.schema.Fact().Len()
	for i := 0; i < n; i++ {
		if !filter.Get(i) {
			continue
		}
		match := true
		for a := range axes {
			if !wanted[a][axisCodes[a][i]] {
				match = false
				break
			}
		}
		if match {
			out = append(out, i)
		}
	}
	return out, nil
}
