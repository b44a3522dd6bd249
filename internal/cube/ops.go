package cube

import (
	"fmt"

	"github.com/ddgms/ddgms/internal/value"
)

// The classic OLAP navigation operations, each producing a derived Query
// from an existing one. They are pure: the original query is never
// modified, so an exploration session can branch (exactly how a clinical
// scientist uses the drag-and-drop interface of the paper's Fig 4).

// Slice restricts the query to facts whose attribute equals v.
func Slice(q Query, ref AttrRef, v value.Value) Query {
	return Dice(q, Slicer{Ref: ref, Values: []value.Value{v}})
}

// Dice adds one or more slicers (each may carry multiple values).
func Dice(q Query, slicers ...Slicer) Query {
	out := q
	out.Slicers = append(append([]Slicer(nil), q.Slicers...), slicers...)
	return out
}

// DrillDown replaces the axis attribute ref with the next finer level of
// the hierarchy that contains it (e.g. AgeBand10 -> AgeBand5 for the
// paper's Fig 5). It returns an error when ref is not on an axis, belongs
// to no hierarchy, or is already at the finest level.
func (e *Engine) DrillDown(q Query, ref AttrRef) (Query, error) {
	finer, err := e.finerLevel(ref)
	if err != nil {
		return Query{}, err
	}
	return replaceAxisAttr(q, ref, AttrRef{Dim: ref.Dim, Attr: finer})
}

func (e *Engine) finerLevel(ref AttrRef) (string, error) {
	dim, ok := e.schema.Dimension(ref.Dim)
	if !ok {
		return "", fmt.Errorf("cube: unknown dimension %q", ref.Dim)
	}
	for _, h := range dim.Hierarchies() {
		if next := h.Finer(ref.Attr); next != "" {
			return next, nil
		}
	}
	return "", fmt.Errorf("cube: no finer level than %s in any hierarchy of %q", ref, ref.Dim)
}

func replaceAxisAttr(q Query, from, to AttrRef) (Query, error) {
	out := q
	out.Rows = append([]AttrRef(nil), q.Rows...)
	out.Cols = append([]AttrRef(nil), q.Cols...)
	for i, r := range out.Rows {
		if r == from {
			out.Rows[i] = to
			return out, nil
		}
	}
	for i, r := range out.Cols {
		if r == from {
			out.Cols[i] = to
			return out, nil
		}
	}
	return Query{}, fmt.Errorf("cube: %s is not on an axis of the query", from)
}
