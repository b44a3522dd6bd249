package cube

import (
	"slices"
	"sort"
	"strings"

	"github.com/ddgms/ddgms/internal/exec"
	"github.com/ddgms/ddgms/internal/value"
)

// The partial aggregate lattice caches the grouped form of every additive
// query (count/sum/avg) keyed by its slicer set and measure. A later
// query over the same slicers and measure whose axis attributes are a
// subset of a cached entry's attributes is answered by rolling the cached
// groups up — no fact scan. This is the classic data-cube lattice of
// Harinarayan et al. restricted to materialising what the user has
// already asked for, which matches the interactive drill-down/roll-up
// workload of Figs 5–6: after the fine-grained drill-down runs, the
// coarse roll-up is free.
//
// Entries keep the full exec.AggState per group plus the query's slicers
// and measure, which is what lets the incremental refresh path (see
// delta.go) merge or retract per-row partial aggregates instead of
// dropping the cache on every warehouse append.

// latticeEntry is one cached group-by: the attribute set (sorted), the
// slicers and measure it was computed under, and the grouped tuples in
// sorted attribute order keyed by their canonical encoding.
type latticeEntry struct {
	attrs   []AttrRef
	slicers []Slicer
	measure MeasureRef
	groups  map[string]*latticeGroup
}

type latticeGroup struct {
	tuple []value.Value
	state *exec.AggState
}

// latticeable reports whether a measure can be cached, rolled up and
// incrementally maintained: count, sum and avg carry their full state in
// (Sum, Count); min/max/distinct would need the raw rows, so they always
// re-scan. An invalid measure is never latticeable, so it reaches the
// scan path and its error.
func latticeable(m MeasureRef) bool {
	return exec.Mergeable(m.Agg) && m.check() == nil
}

// latticeBase canonically encodes the parts of a query that must match a
// cached entry exactly: slicers (order-insensitive) and measure. Slicer
// values are kind-tagged and NUL-separated by exec.EncodeTuple, so
// {"a", "b"} and {"a|b"}, or Int(1) and Str("1"), key different entries
// just as the slicer row selection treats them as different members.
func latticeBase(q Query) string {
	slicers := make([]string, len(q.Slicers))
	for i, s := range q.Slicers {
		vals := append([]value.Value(nil), s.Values...)
		sort.Slice(vals, func(a, b int) bool { return vals[a].Compare(vals[b]) < 0 })
		slicers[i] = s.Ref.String() + "=" + exec.EncodeTuple(vals)
	}
	sort.Strings(slicers)
	return strings.Join(slicers, ";") + "#" + q.Measure.String()
}

// sortedAxes returns the query's axis attributes sorted by name, plus the
// permutation mapping sorted position -> original axis position.
func sortedAxes(q Query) ([]AttrRef, []int) {
	axes := append(append([]AttrRef{}, q.Rows...), q.Cols...)
	idx := make([]int, len(axes))
	for i := range idx {
		idx[i] = i
	}
	sort.Slice(idx, func(a, b int) bool {
		return axes[idx[a]].String() < axes[idx[b]].String()
	})
	sorted := make([]AttrRef, len(axes))
	for p, orig := range idx {
		sorted[p] = axes[orig]
	}
	return sorted, idx
}

func sameAttrs(a, b []AttrRef) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// subsetPositions returns, for each attr of want, its position in have, or
// ok=false when want is not a subset of have.
func subsetPositions(want, have []AttrRef) ([]int, bool) {
	pos := make([]int, len(want))
	for i, w := range want {
		found := -1
		for j, h := range have {
			if w == h {
				found = j
				break
			}
		}
		if found < 0 {
			return nil, false
		}
		pos[i] = found
	}
	return pos, true
}

// cloneSlicers deep-copies a slicer list so a cached entry is immune to
// caller mutation.
func cloneSlicers(slicers []Slicer) []Slicer {
	out := make([]Slicer, len(slicers))
	for i, s := range slicers {
		out[i] = Slicer{Ref: s.Ref, Values: append([]value.Value(nil), s.Values...)}
	}
	return out
}

// latticeStore records the grouped form of an executed additive query.
// Groups arrive tupled in the query's axis order; they are stored in
// sorted attribute order so permuted queries share entries. The kernel's
// aggregate states are fresh per invocation and are adopted directly.
func (e *Engine) latticeStore(q Query, groups []exec.Group) {
	sorted, perm := sortedAxes(q)
	entry := &latticeEntry{
		attrs:   sorted,
		slicers: cloneSlicers(q.Slicers),
		measure: q.Measure,
		groups:  make(map[string]*latticeGroup, len(groups)),
	}
	for _, g := range groups {
		tuple := make([]value.Value, len(perm))
		for p, orig := range perm {
			tuple[p] = g.Tuple[orig]
		}
		entry.groups[exec.EncodeTuple(tuple)] = &latticeGroup{tuple: tuple, state: g.States[0]}
	}
	base := latticeBase(q)
	e.mu.Lock()
	defer e.mu.Unlock()
	entries := e.lattice[base]
	for i, ex := range entries {
		if sameAttrs(ex.attrs, sorted) {
			// Replaced in a copy, never in place: see latticeLookup.
			entries = slices.Clone(entries)
			entries[i] = entry
			e.lattice[base] = entries
			return
		}
	}
	e.lattice[base] = append(entries, entry)
}

// latticeLookup answers q from the cache if possible: an entry with the
// exact attribute set is re-assembled directly; an entry whose attribute
// set is a superset is rolled up. Only additive measures qualify.
//
// It iterates the entry slice it read under e.mu after unlocking, so
// every writer of e.lattice replaces a slice in a copy (or appends past
// the length a reader holds) and never rewrites it in place.
func (e *Engine) latticeLookup(q Query) (*CellSet, bool) {
	if !latticeable(q.Measure) {
		return nil, false
	}
	base := latticeBase(q)
	want, perm := sortedAxes(q)

	e.mu.Lock()
	entries := e.lattice[base]
	e.mu.Unlock()

	var src *latticeEntry
	var pos []int
	exact := false
	for _, entry := range entries {
		if sameAttrs(entry.attrs, want) {
			src, pos, exact = entry, identity(len(want)), true
			break
		}
	}
	if src == nil {
		for _, entry := range entries {
			if p, ok := subsetPositions(want, entry.attrs); ok {
				src, pos = entry, p
				break
			}
		}
	}
	if src == nil {
		return nil, false
	}

	// Roll up src groups onto the wanted attrs (in sorted order), then map
	// back to the query's axis order via perm. Merging the cached states
	// is exact for every latticeable aggregate.
	type acc struct {
		tuple []value.Value
		state *exec.AggState
	}
	rolled := make(map[string]*acc)
	buf := make([]value.Value, len(want))
	merge := func(g *latticeGroup) {
		for i, p := range pos {
			buf[i] = g.tuple[p]
		}
		k := exec.EncodeTuple(buf)
		a, ok := rolled[k]
		if !ok {
			a = &acc{
				tuple: append([]value.Value(nil), buf...),
				state: exec.NewAggState(q.Measure.Agg),
			}
			rolled[k] = a
		}
		a.state.Merge(g.state)
	}
	if exact {
		// One state per rolled group: the order cannot change a sum.
		for _, g := range src.groups {
			merge(g)
		}
	} else {
		// Float sums depend on the order they are added in, so a roll-up
		// merges in key order: the same request gets the same bits.
		keys := make([]string, 0, len(src.groups))
		for k := range src.groups {
			keys = append(keys, k)
		}
		sort.Strings(keys)
		for _, k := range keys {
			merge(src.groups[k])
		}
	}

	// perm maps sorted position -> original axis position; invert it to
	// rebuild tuples in axis order.
	inv := make([]int, len(perm))
	for p, orig := range perm {
		inv[orig] = p
	}
	cs := e.assembleCellSet(q, func(yield func([]value.Value, value.Value)) {
		for _, a := range rolled {
			tuple := make([]value.Value, len(inv))
			for orig, p := range inv {
				tuple[orig] = a.tuple[p]
			}
			if !q.IncludeMissing && tupleHasNA(tuple) {
				continue
			}
			yield(tuple, a.state.Result())
		}
	})
	return cs, true
}

func identity(n int) []int {
	out := make([]int, n)
	for i := range out {
		out[i] = i
	}
	return out
}

// LatticeSize reports the number of cached aggregate entries (for tests
// and the B2 ablation harness).
func (e *Engine) LatticeSize() int {
	e.mu.Lock()
	defer e.mu.Unlock()
	n := 0
	for _, entries := range e.lattice {
		n += len(entries)
	}
	return n
}
