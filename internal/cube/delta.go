package cube

import (
	"fmt"

	"github.com/ddgms/ddgms/internal/exec"
	"github.com/ddgms/ddgms/internal/star"
	"github.com/ddgms/ddgms/internal/value"
)

// Incremental cache maintenance. The refresh layer mutates the star
// schema in two ways only — retiring fact rows and appending new ones —
// and then calls ApplyDelta, which folds the change into every memoised
// structure instead of discarding it:
//
//   - coded columns and code-indexed member bitmaps are extended with the
//     appended rows (retired rows stay physically present and are masked
//     by filterBitmap, so those caches need no change for retirement).
//     Both extend in place in O(appended rows): exec.ExtendCoded writes
//     only the new codes and dictionary entries and leaves every older
//     column header reading as it did; existing codes never change, so
//     the bitmaps indexed by them stay valid, and only the bitmaps of
//     members the batch adds rows to grow;
//   - lattice entries have the per-row partial aggregates of retired
//     rows retracted (exec.AggState.Unmerge) and of appended rows merged
//     (exec.AggState.Merge). Only additive measures live in the lattice,
//     so this is exact; anything the delta cannot maintain is dropped
//     and recomputed by the next query's scan.
//
// Targeted invalidation (InvalidateDimension) covers schema-shape
// mutations — feedback dimensions — dropping exactly the caches that
// could reference the changed dimension instead of everything;
// InvalidateCaches remains the blanket fallback.

// Delta describes one warehouse mutation batch applied to the fact
// table: rows newly tombstoned via Retire (their ordinals) and the count
// of rows appended at the tail. The caller must apply the fact-table
// changes first and call ApplyDelta before releasing queries.
type Delta struct {
	Retired  []int
	Appended int
}

// DeltaStats reports what ApplyDelta did with the lattice, feeding the
// cuboids-merged-vs-rescanned metrics.
type DeltaStats struct {
	EntriesMerged  int // lattice entries maintained in place
	EntriesDropped int // lattice entries dropped (next query re-scans)
	ColumnsGrown   int // cached coded columns extended
}

// ApplyDelta folds a fact-table delta into the engine's caches. It must
// be called with queries quiesced (the refresh maintainer holds its
// write lock across Retire/Append/ApplyDelta); the engine's own mutex
// only protects the cache maps.
func (e *Engine) ApplyDelta(d Delta) (DeltaStats, error) {
	var stats DeltaStats
	e.mu.Lock()
	defer e.mu.Unlock()

	fact := e.schema.Fact()
	n := fact.Len()
	oldN := n - d.Appended
	if oldN < 0 {
		return stats, fmt.Errorf("cube: delta appends %d rows but fact table has %d", d.Appended, n)
	}
	for _, i := range d.Retired {
		if i < 0 || i >= n {
			return stats, fmt.Errorf("cube: retired row %d out of range (%d facts)", i, n)
		}
	}

	if d.Appended > 0 {
		for ref, cc := range e.codedCols {
			if cc.Len() != oldN {
				// Cache inconsistent with the delta (should not happen);
				// drop rather than corrupt.
				e.dropAttrLocked(ref)
				continue
			}
			vals, err := e.appendedValues(ref, oldN)
			if err != nil {
				return stats, err
			}
			grown := exec.ExtendCoded(cc, vals)
			e.codedCols[ref] = grown
			stats.ColumnsGrown++
			if members, ok := e.bitmaps[ref]; ok {
				e.bitmaps[ref] = growBitmaps(members, grown, oldN)
			}
		}
	}

	for base, entries := range e.lattice {
		kept := make([]*latticeEntry, 0, len(entries)) // never filtered in place: see latticeLookup
		for _, entry := range entries {
			if e.deltaEntryLocked(entry, d, oldN) {
				kept = append(kept, entry)
				stats.EntriesMerged++
			} else {
				stats.EntriesDropped++
			}
		}
		if len(kept) == 0 {
			delete(e.lattice, base)
		} else {
			e.lattice[base] = kept
		}
	}
	cubeDeltaMerged.Add(uint64(stats.EntriesMerged))
	cubeDeltaDropped.Add(uint64(stats.EntriesDropped))
	return stats, nil
}

// appendedValues resolves ref for the fact rows appended from oldN on.
func (e *Engine) appendedValues(ref AttrRef, oldN int) ([]value.Value, error) {
	dim, keys, err := e.attrSource(ref)
	if err != nil {
		return nil, err
	}
	vals := make([]value.Value, 0, len(keys)-oldN)
	for _, k := range keys[oldN:] {
		if k == star.NoKey {
			vals = append(vals, value.NA())
			continue
		}
		v, err := dim.Attr(k, ref.Attr)
		if err != nil {
			return nil, err
		}
		vals = append(vals, v)
	}
	return vals, nil
}

// growBitmaps extends the code-indexed member bitmaps of the grown
// column cc in place: each row appended from oldN on sets its bit in its
// code's bitmap, which grows to reach it, and a code the append added to
// the dictionary gets a new bitmap. Bitmaps of members no appended row
// carries are left short of the fact table, which Or reads as unset.
func growBitmaps(members []*Bitmap, cc *exec.CodedColumn, oldN int) []*Bitmap {
	for len(members) < cc.Card() {
		members = append(members, nil)
	}
	for j, code := range cc.Codes()[oldN:] {
		if members[code] == nil {
			members[code] = &Bitmap{}
		}
		members[code].grow(oldN + j + 1)
		members[code].Set(oldN + j)
	}
	return members
}

// deltaEntryLocked maintains one lattice entry in place, reporting false
// when the entry cannot be maintained and must be dropped. Caller holds
// e.mu and has already extended the coded columns.
func (e *Engine) deltaEntryLocked(entry *latticeEntry, d Delta, oldN int) bool {
	if !exec.Mergeable(entry.measure.Agg) {
		return false
	}
	fact := e.schema.Fact()

	// Every referenced column must be cached (they were, when the entry
	// was stored; targeted invalidation removes entries with their
	// columns).
	coded := func(ref AttrRef) (*exec.CodedColumn, bool) {
		cc, ok := e.codedCols[ref]
		return cc, ok && cc.Len() == fact.Len()
	}
	axisCols := make([]*exec.CodedColumn, len(entry.attrs))
	for i, ref := range entry.attrs {
		cc, ok := coded(ref)
		if !ok {
			return false
		}
		axisCols[i] = cc
	}
	slicers := make([]exec.CodeSet, len(entry.slicers))
	for i, s := range entry.slicers {
		cc, ok := coded(s.Ref)
		if !ok {
			return false
		}
		slicers[i] = exec.InValues(cc, s.Values)
	}
	var measure exec.Measure
	switch {
	case entry.measure.Column != "":
		col, err := fact.Measure(entry.measure.Column)
		if err != nil {
			return false
		}
		measure = col
	case entry.measure.Attr != nil:
		cc, ok := coded(*entry.measure.Attr)
		if !ok {
			return false
		}
		measure = cc
	}

	matches := func(i int) bool {
		for _, s := range slicers {
			if !s.Allowed[s.Codes[i]] {
				return false
			}
		}
		return true
	}
	rowState := func(i int) *exec.AggState {
		st := exec.NewAggState(entry.measure.Agg)
		if measure != nil {
			st.Observe(measure.Value(i))
		} else {
			st.ObserveRow()
		}
		return st
	}
	tupleAt := func(i int) []value.Value {
		tuple := make([]value.Value, len(axisCols))
		for a, cc := range axisCols {
			tuple[a] = cc.Value(i)
		}
		return tuple
	}

	for _, i := range d.Retired {
		if !matches(i) {
			continue
		}
		tuple := tupleAt(i)
		key := exec.EncodeTuple(tuple)
		grp, ok := entry.groups[key]
		if !ok {
			return false // entry disagrees with the fact table; rebuild
		}
		grp.state.Unmerge(rowState(i))
		if grp.state.Rows < 0 {
			return false
		}
		if grp.state.Rows == 0 {
			delete(entry.groups, key)
		}
	}
	for i := oldN; i < fact.Len(); i++ {
		if !fact.Alive(i) || !matches(i) {
			continue
		}
		tuple := tupleAt(i)
		key := exec.EncodeTuple(tuple)
		if grp, ok := entry.groups[key]; ok {
			grp.state.Merge(rowState(i))
			continue
		}
		entry.groups[key] = &latticeGroup{tuple: tuple, state: rowState(i)}
	}
	return true
}

// dropAttrLocked removes every per-attribute cache of ref. Caller holds
// e.mu.
func (e *Engine) dropAttrLocked(ref AttrRef) {
	delete(e.codedCols, ref)
	delete(e.bitmaps, ref)
}

// InvalidateDimension drops every cache touching any attribute of the
// named dimension — the right scope when a dimension is added, removed
// or re-keyed (feedback dimensions). Caches over other dimensions and
// their lattice entries survive.
func (e *Engine) InvalidateDimension(dim string) {
	e.mu.Lock()
	defer e.mu.Unlock()
	for ref := range e.codedCols {
		if ref.Dim == dim {
			delete(e.codedCols, ref)
		}
	}
	for ref := range e.bitmaps {
		if ref.Dim == dim {
			delete(e.bitmaps, ref)
		}
	}
	e.dropLatticeEntriesLocked(func(entry *latticeEntry) bool {
		for _, a := range entry.attrs {
			if a.Dim == dim {
				return true
			}
		}
		for _, s := range entry.slicers {
			if s.Ref.Dim == dim {
				return true
			}
		}
		return entry.measure.Attr != nil && entry.measure.Attr.Dim == dim
	})
}

// dropLatticeEntriesLocked removes lattice entries matching pred. Caller
// holds e.mu.
func (e *Engine) dropLatticeEntriesLocked(pred func(*latticeEntry) bool) {
	for base, entries := range e.lattice {
		kept := make([]*latticeEntry, 0, len(entries)) // never filtered in place: see latticeLookup
		for _, entry := range entries {
			if !pred(entry) {
				kept = append(kept, entry)
			}
		}
		if len(kept) == 0 {
			delete(e.lattice, base)
		} else {
			e.lattice[base] = kept
		}
	}
}
