package cube

import (
	"context"
	"fmt"
	"sort"
	"sync"

	"github.com/ddgms/ddgms/internal/exec"
	"github.com/ddgms/ddgms/internal/obs"
	"github.com/ddgms/ddgms/internal/star"
	"github.com/ddgms/ddgms/internal/value"
)

// Engine executes OLAP queries against a star schema. It memoises
// dictionary-coded attribute columns, code-indexed bitmap member indexes
// and (optionally) a partial aggregate lattice, so repeated interactive
// exploration of the same warehouse is fast. Engine is safe for concurrent
// query execution.
type Engine struct {
	schema *star.Schema

	useLattice bool

	mu        sync.Mutex
	codedCols map[AttrRef]*exec.CodedColumn
	// bitmaps holds member bitmaps indexed by dictionary code. ApplyDelta
	// grows only those of members a batch adds rows to, so a bitmap may
	// be shorter than the fact table; rows past its end are unset.
	bitmaps     map[AttrRef][]*Bitmap
	lattice     map[string][]*latticeEntry
	memberOrder map[AttrRef]map[value.Value]int
}

// Option configures an Engine.
type Option func(*Engine)

// WithAggregateCache enables or disables the partial aggregate lattice
// (default on). When enabled, additive queries (count/sum) can be answered
// by rolling up previously computed finer-grained results.
func WithAggregateCache(on bool) Option { return func(e *Engine) { e.useLattice = on } }

// NewEngine creates an engine over a loaded star schema.
func NewEngine(schema *star.Schema, opts ...Option) *Engine {
	e := &Engine{
		schema:      schema,
		useLattice:  true,
		codedCols:   make(map[AttrRef]*exec.CodedColumn),
		bitmaps:     make(map[AttrRef][]*Bitmap),
		lattice:     make(map[string][]*latticeEntry),
		memberOrder: make(map[AttrRef]map[value.Value]int),
	}
	for _, o := range opts {
		o(e)
	}
	return e
}

// Schema returns the underlying star schema.
func (e *Engine) Schema() *star.Schema { return e.schema }

// SetMemberOrder declares the display order of an attribute's members
// (e.g. age bands "<40", "40-60", "60-80", ">80", which would otherwise
// sort lexicographically). Unlisted members sort after listed ones in
// natural order.
func (e *Engine) SetMemberOrder(ref AttrRef, members []value.Value) {
	e.mu.Lock()
	defer e.mu.Unlock()
	m := make(map[value.Value]int, len(members))
	for i, v := range members {
		m[v] = i
	}
	e.memberOrder[ref] = m
}

// InvalidateCaches clears every memoised structure. Call after mutating
// the star schema in a way InvalidateDimension does not scope.
func (e *Engine) InvalidateCaches() {
	e.mu.Lock()
	defer e.mu.Unlock()
	e.codedCols = make(map[AttrRef]*exec.CodedColumn)
	e.bitmaps = make(map[AttrRef][]*Bitmap)
	e.lattice = make(map[string][]*latticeEntry)
}

// attrSource resolves ref to its dimension and the fact key column into
// that dimension, from which every per-fact value of ref derives.
func (e *Engine) attrSource(ref AttrRef) (*star.Dimension, []star.Key, error) {
	dim, ok := e.schema.Dimension(ref.Dim)
	if !ok {
		return nil, nil, fmt.Errorf("cube: unknown dimension %q", ref.Dim)
	}
	if !dim.HasAttr(ref.Attr) {
		return nil, nil, fmt.Errorf("cube: dimension %q has no attribute %q", ref.Dim, ref.Attr)
	}
	keys, err := e.schema.Fact().KeyColumn(ref.Dim)
	if err != nil {
		return nil, nil, err
	}
	return dim, keys, nil
}

// attrCoded materialises (and caches) the dictionary-encoded column of an
// attribute — the engine's only per-fact form of it, and the key
// representation the execution kernel groups on. Codes are interned
// straight from the fact key column through the member attribute values;
// facts with NoKey get NA.
func (e *Engine) attrCoded(ref AttrRef) (*exec.CodedColumn, error) {
	e.mu.Lock()
	cc, ok := e.codedCols[ref]
	e.mu.Unlock()
	if ok {
		cubeDictHit.Inc()
		return cc, nil
	}
	cubeDictMiss.Inc()

	dim, keys, err := e.attrSource(ref)
	if err != nil {
		return nil, err
	}
	memberVals := make([]value.Value, dim.Len())
	for k := range memberVals {
		if memberVals[k], err = dim.Attr(star.Key(k), ref.Attr); err != nil {
			return nil, err
		}
	}
	cc = exec.EncodeFunc(len(keys), func(i int) value.Value {
		if keys[i] == star.NoKey {
			return value.NA()
		}
		return memberVals[keys[i]]
	})
	e.mu.Lock()
	e.codedCols[ref] = cc
	e.mu.Unlock()
	return cc, nil
}

// bitmapFor returns (building if needed) the member bitmaps of ref,
// indexed by dictionary code, together with the coded column whose
// dictionary resolves values to those codes. A code no fact row carries
// has a nil bitmap.
func (e *Engine) bitmapFor(ref AttrRef) ([]*Bitmap, *exec.CodedColumn, error) {
	e.mu.Lock()
	perCode, cc := e.bitmaps[ref], e.codedCols[ref]
	e.mu.Unlock()
	if perCode != nil && cc != nil {
		return perCode, cc, nil
	}

	cc, err := e.attrCoded(ref)
	if err != nil {
		return nil, nil, err
	}
	perCode = make([]*Bitmap, cc.Card())
	for i, code := range cc.Codes() {
		b := perCode[code]
		if b == nil {
			b = NewBitmap(cc.Len())
			perCode[code] = b
		}
		b.Set(i)
	}
	e.mu.Lock()
	e.bitmaps[ref] = perCode
	e.mu.Unlock()
	return perCode, cc, nil
}

// filterBitmap evaluates all slicers into one fact-row bitmap. Retired
// (tombstoned) fact rows are masked out first, so every scan and
// aggregate sees only live facts.
func (e *Engine) filterBitmap(slicers []Slicer) (*Bitmap, error) {
	fact := e.schema.Fact()
	n := fact.Len()
	out := NewBitmap(n)
	out.Fill()
	if fact.RetiredCount() > 0 {
		out.AndNotWords(fact.DeadWords())
	}
	for _, s := range slicers {
		if len(s.Values) == 0 {
			return nil, fmt.Errorf("cube: slicer on %s has no values", s.Ref)
		}
		members, cc, err := e.bitmapFor(s.Ref)
		if err != nil {
			return nil, err
		}
		union := NewBitmap(n)
		for code, ok := range exec.InValues(cc, s.Values).Allowed {
			if ok && members[code] != nil {
				union.Or(members[code])
			}
		}
		out.And(union)
	}
	return out, nil
}

// measureInput resolves what the kernel aggregates: the fact measure
// column as stored (int and float columns implement exec.FloatMeasure,
// so the kernel reads them without boxing), the coded column of an
// attribute, or nil for a plain fact count.
func (e *Engine) measureInput(m MeasureRef) (exec.Measure, error) {
	if err := m.check(); err != nil {
		return nil, err
	}
	switch {
	case m.Column != "":
		col, err := e.schema.Fact().Measure(m.Column)
		if err != nil {
			return nil, fmt.Errorf("cube: %w", err)
		}
		return col, nil
	case m.Attr != nil:
		cc, err := e.attrCoded(*m.Attr)
		if err != nil {
			return nil, err
		}
		return cc, nil
	}
	return nil, nil
}

// ExecuteCtx runs a query and returns its cell set. The aggregate lattice
// is consulted first, so a hit resolves no column at all. A miss runs the
// grouping scan on the shared execution kernel (internal/exec): axis
// columns are dictionary-encoded once and cached, groups are keyed on
// packed integer codes, and the slicer bitmap's words are the kernel's row
// selection.
//
// The kernel scan checks ctx cooperatively and charges any govern.Budget
// it carries, so a cancelled or over-budget query stops mid-scan with no
// partial result. When ctx carries a trace span, the stages (cube.encode,
// cube.filter, cube.group with the kernel phases beneath it,
// cube.assemble) are recorded under it; without one each stage pays a
// nil check.
func (e *Engine) ExecuteCtx(ctx context.Context, q Query) (*CellSet, error) {
	sp := obs.SpanFromContext(ctx)
	metricQueries.Inc()
	if e.useLattice {
		if cs, ok := e.latticeLookup(q); ok {
			latticeHit.Inc()
			sp.Annotate("lattice", "hit")
			return cs, nil
		}
	}

	encode := sp.Start("cube.encode")
	axes := append(append([]AttrRef{}, q.Rows...), q.Cols...)
	axisCoded := make([]*exec.CodedColumn, len(axes))
	for i, ref := range axes {
		cc, err := e.attrCoded(ref)
		if err != nil {
			encode.End()
			return nil, err
		}
		axisCoded[i] = cc
	}
	measure, err := e.measureInput(q.Measure)
	encode.Annotate("axes", len(axes))
	encode.End()
	if err != nil {
		return nil, err
	}
	if e.useLattice {
		latticeMiss.Inc()
	}

	filterSp := sp.Start("cube.filter")
	filter, err := e.filterBitmap(q.Slicers)
	filterSp.Annotate("slicers", len(q.Slicers))
	filterSp.End()
	if err != nil {
		return nil, err
	}

	// Group every filtered fact, including those with NA axis coordinates;
	// NA tuples are dropped at assembly time unless IncludeMissing is set.
	// Keeping them in the grouped form makes the cached lattice entry
	// correct for later roll-ups to coarser attribute subsets.
	in := exec.GroupInput{
		NumRows: e.schema.Fact().Len(),
		Keys:    axisCoded,
		Aggs:    []exec.AggInput{{Kind: q.Measure.Agg, Measure: measure}},
		Rows:    filter.words,
	}
	gctx, groupSp := obs.StartSpan(ctx, "cube.group")
	groups, err := exec.GroupBy(gctx, in)
	groupSp.Annotate("groups", len(groups))
	groupSp.End()
	if err != nil {
		return nil, fmt.Errorf("cube: %w", err)
	}

	assemble := sp.Start("cube.assemble")
	cs := e.assembleCellSet(q, func(yield func(tuple []value.Value, cell value.Value)) {
		for _, g := range groups {
			if !q.IncludeMissing && tupleHasNA(g.Tuple) {
				continue
			}
			yield(g.Tuple, g.States[0].Result())
		}
	})
	assemble.End()

	if e.useLattice && latticeable(q.Measure) {
		e.latticeStore(q, groups)
	}
	return cs, nil
}

func tupleHasNA(tuple []value.Value) bool {
	for _, v := range tuple {
		if v.IsNA() {
			return true
		}
	}
	return false
}

// assembleCellSet lays grouped tuples out on the two axes.
func (e *Engine) assembleCellSet(q Query, emit func(yield func([]value.Value, value.Value))) *CellSet {
	nr, nc := len(q.Rows), len(q.Cols)
	rowSet := make(map[string][]value.Value)
	colSet := make(map[string][]value.Value)
	type pending struct {
		rk, ck string
		cell   value.Value
	}
	var cells []pending
	emit(func(tuple []value.Value, cell value.Value) {
		rt, ct := tuple[:nr], tuple[nr:nr+nc]
		rk, ck := exec.EncodeTuple(rt), exec.EncodeTuple(ct)
		if _, ok := rowSet[rk]; !ok {
			rowSet[rk] = append([]value.Value(nil), rt...)
		}
		if _, ok := colSet[ck]; !ok {
			colSet[ck] = append([]value.Value(nil), ct...)
		}
		cells = append(cells, pending{rk: rk, ck: ck, cell: cell})
	})

	rowHeaders := e.sortTuples(rowSet, q.Rows)
	colHeaders := e.sortTuples(colSet, q.Cols)
	rowIdx := make(map[string]int, len(rowHeaders))
	for i, t := range rowHeaders {
		rowIdx[exec.EncodeTuple(t)] = i
	}
	colIdx := make(map[string]int, len(colHeaders))
	for i, t := range colHeaders {
		colIdx[exec.EncodeTuple(t)] = i
	}
	matrix := make([][]value.Value, len(rowHeaders))
	for i := range matrix {
		matrix[i] = make([]value.Value, len(colHeaders))
		for j := range matrix[i] {
			matrix[i][j] = value.NA()
		}
	}
	for _, p := range cells {
		matrix[rowIdx[p.rk]][colIdx[p.ck]] = p.cell
	}
	return &CellSet{
		RowAttrs:   append([]AttrRef(nil), q.Rows...),
		ColAttrs:   append([]AttrRef(nil), q.Cols...),
		RowHeaders: rowHeaders,
		ColHeaders: colHeaders,
		Cells:      matrix,
		Measure:    q.Measure,
	}
}

// sortTuples orders axis header tuples, honouring declared member orders.
func (e *Engine) sortTuples(set map[string][]value.Value, attrs []AttrRef) [][]value.Value {
	out := make([][]value.Value, 0, len(set))
	for _, t := range set {
		out = append(out, t)
	}
	e.mu.Lock()
	orders := make([]map[value.Value]int, len(attrs))
	for i, ref := range attrs {
		orders[i] = e.memberOrder[ref]
	}
	e.mu.Unlock()
	sort.Slice(out, func(a, b int) bool {
		for k := range attrs {
			va, vb := out[a][k], out[b][k]
			if ord := orders[k]; ord != nil {
				ia, oka := ord[va]
				ib, okb := ord[vb]
				switch {
				case oka && okb:
					if ia != ib {
						return ia < ib
					}
					continue
				case oka:
					return true
				case okb:
					return false
				}
			}
			if c := va.Compare(vb); c != 0 {
				return c < 0
			}
		}
		return false
	})
	return out
}
