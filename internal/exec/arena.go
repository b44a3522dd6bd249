package exec

import (
	"math"
	"math/bits"

	"github.com/ddgms/ddgms/internal/value"
)

// aggMode is the kernel's per-invocation observation strategy for one
// aggregate, compiled by planAggs from the measure's concrete type.
type aggMode uint8

const (
	// modeRows counts raw rows (nil measure).
	modeRows aggMode = iota
	// modeGeneric materialises value.Value per row — the fallback, and
	// the only mode the scalar/hashed/wide paths use for distinct.
	modeGeneric
	// modeFloat reads floats straight off a FloatMeasure, skipping the
	// value.Value round trip for sum/avg/min/max/count.
	modeFloat
	// modeDistinctCoded accumulates distinct counts as bitsets over the
	// measure's dictionary codes in the arena — no Seen maps at all.
	modeDistinctCoded
)

// maxDistinctBitsetWords bounds the dense path's worst-case distinct
// bitset footprint (slots x words of potential groups). Beyond it the
// plan falls back to Seen maps, whose cost tracks actual distinct values
// rather than dictionary cardinality.
const maxDistinctBitsetWords = 1 << 22 // 32 MiB of uint64 words

// aggPlan is the compiled form of one AggInput.
type aggPlan struct {
	kind  AggKind
	mode  aggMode
	m     Measure
	fm    FloatMeasure
	codes []uint32 // modeDistinctCoded: the measure's code vector
	words int      // modeDistinctCoded: bitset words per group
	off   int      // modeDistinctCoded: word offset inside a group's bitset span
}

// planAggs compiles the aggregate inputs for the dense path. Distinct
// over a dictionary-coded measure becomes a bitset provided the
// dictionary holds no float NaN: Go map keys treat every NaN as
// distinct, so the legacy Seen semantics count each NaN observation
// separately while the dictionary folds them onto one code — those
// columns keep the map path to stay bit-identical with the scalar
// oracle.
func planAggs(aggs []AggInput, numRows, denseSize int) ([]aggPlan, int) {
	plan := make([]aggPlan, len(aggs))
	distWords := 0
	for k, a := range aggs {
		p := &plan[k]
		p.kind = a.Kind
		p.m = a.Measure
		switch {
		case a.Measure == nil:
			p.mode = modeRows
		case a.Kind == DistinctAgg:
			p.mode = modeGeneric
			if cc, ok := a.Measure.(*CodedColumn); ok && cc.Len() >= numRows && !dictHasNaN(cc.Values()) {
				words := (cc.Card() + 63) / 64
				if denseSize*(distWords+words) <= maxDistinctBitsetWords {
					p.mode = modeDistinctCoded
					p.codes = cc.codes
					p.words = words
					p.off = distWords
					distWords += words
				}
			}
		default:
			if fm, ok := a.Measure.(FloatMeasure); ok && fm.AllFloat() {
				p.mode = modeFloat
				p.fm = fm
			} else {
				p.mode = modeGeneric
			}
		}
	}
	return plan, distWords
}

func dictHasNaN(values []value.Value) bool {
	for _, v := range values {
		if v.Kind() == value.FloatKind && math.IsNaN(v.Float()) {
			return true
		}
	}
	return false
}

// denseArena batch-allocates one worker's group state for the dense
// path: a slot table addressed by the packed key, one slab of AggState
// for every group's accumulators and one slab of bitset words for
// distinct measures. Creating a group is a couple of slab appends
// instead of per-state heap allocations, and the slabs are stable once
// the scan finishes, so output groups can point into them directly.
type denseArena struct {
	plan      []aggPlan
	nAggs     int
	distWords int
	slots     []int32 // packed key -> group index + 1; 0 = empty
	states    []AggState
	bits      []uint64
	groups    int
}

func newDenseArena(size int, plan []aggPlan, distWords int) *denseArena {
	a := &denseArena{plan: plan, nAggs: len(plan), distWords: distWords, slots: make([]int32, size)}
	pre := size
	if pre > 256 {
		pre = 256
	}
	if a.nAggs > 0 {
		a.states = make([]AggState, 0, pre*a.nAggs)
	}
	if distWords > 0 {
		a.bits = make([]uint64, 0, pre*distWords)
	}
	return a
}

// group resolves the arena group for a packed key slot, creating it on
// first sight. ok is false when the cell budget rejects the new group.
func (a *denseArena) group(slot uint64, c *scanCtl) (g int, ok bool) {
	if gi := a.slots[slot]; gi != 0 {
		return int(gi) - 1, true
	}
	if !c.cell() {
		return 0, false
	}
	g = a.groups
	a.groups++
	a.slots[slot] = int32(g + 1)
	for k := range a.plan {
		st := AggState{Kind: a.plan[k].kind, Min: math.Inf(1), Max: math.Inf(-1)}
		if a.plan[k].mode == modeGeneric && a.plan[k].kind == DistinctAgg {
			st.Seen = make(map[value.Value]struct{})
		}
		a.states = append(a.states, st)
	}
	for j := 0; j < a.distWords; j++ {
		a.bits = append(a.bits, 0)
	}
	return g, true
}

// observe folds row i into group g.
func (a *denseArena) observe(g, i int) {
	base := g * a.nAggs
	for k := range a.plan {
		p := &a.plan[k]
		st := &a.states[base+k]
		switch p.mode {
		case modeRows:
			st.Rows++
			st.Count++
			st.Any = true
		case modeFloat:
			st.Rows++
			if f, ok := p.fm.FloatAt(i); ok {
				st.Count++
				st.Any = true
				st.Sum += f
				if f < st.Min {
					st.Min = f
				}
				if f > st.Max {
					st.Max = f
				}
			}
		case modeDistinctCoded:
			st.Rows++
			if code := p.codes[i]; code != NACode {
				st.Count++
				st.Any = true
				a.bits[g*a.distWords+p.off+int(code>>6)] |= 1 << (code & 63)
			}
		default:
			st.Observe(p.m.Value(i))
		}
	}
}

// mergeGroup folds group sg of src into group g of a (the worker-merge
// step). Distinct bitsets OR together; everything else uses AggState
// merge semantics.
func (a *denseArena) mergeGroup(g int, src *denseArena, sg int) {
	base, sbase := g*a.nAggs, sg*a.nAggs
	for k := range a.plan {
		dst, s := &a.states[base+k], &src.states[sbase+k]
		if a.plan[k].mode == modeDistinctCoded {
			dst.Rows += s.Rows
			dst.Count += s.Count
			dst.Any = dst.Any || s.Any
			do := g*a.distWords + a.plan[k].off
			so := sg*src.distWords + a.plan[k].off
			for j := 0; j < a.plan[k].words; j++ {
				a.bits[do+j] |= src.bits[so+j]
			}
		} else {
			dst.Merge(s)
		}
	}
}

// seal finalises group g: distinct bitsets collapse to their popcount,
// leaving a sealed AggState (Seen nil, Distinct set) that Result reads
// directly.
func (a *denseArena) seal(g int) {
	for k := range a.plan {
		if a.plan[k].mode != modeDistinctCoded {
			continue
		}
		var n int64
		off := g*a.distWords + a.plan[k].off
		for j := 0; j < a.plan[k].words; j++ {
			n += int64(bits.OnesCount64(a.bits[off+j]))
		}
		a.states[g*a.nAggs+k].Distinct = n
	}
}
