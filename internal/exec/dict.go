// Package exec implements the shared vectorized execution core of the
// DD-DGMS platform. Every query layer — the storage engine's group-by, the
// OLAP cube, the flat-scan baseline and the DG-SQL executor — aggregates
// low-cardinality clinical attributes; this package gives them one common
// engine for that workload: dictionary-encoded columns (value.Value ->
// uint32 code with a reverse table), a canonical tuple encoding, and a
// group-by/aggregate kernel that keys groups on packed integer codes,
// partitions the row range across a GOMAXPROCS-sized worker pool, and
// merges per-worker partial aggregates deterministically.
//
// A coded column is one flat []uint32 code vector plus its dictionary.
// The kernel indexes the code vectors directly, and partial aggregate
// state lives in per-worker arenas.
//
// The kernel picks one of three accumulation paths per invocation from
// the packed key width: a direct-indexed dense table when the whole
// tuple fits maxDenseBits, a uint64-keyed hash map when it fits a
// machine word, and a raw-code byte-string map beyond that. The
// pre-vectorization algorithm (string-keyed map over materialised
// values) lives on in this package's tests as the reference oracle the
// three paths are compared against.
//
// The kernel is instrumented for internal/obs: per-invocation counters
// (rows scanned, groups produced, path taken, worker fan-out, merge
// time) and, when the context carries a span, exec.scan / exec.merge /
// exec.sort phase spans under it. Recording is per invocation, never per row, so
// the hot loops are untouched.
package exec

import (
	"math"
	"strings"

	"github.com/ddgms/ddgms/internal/value"
)

// NACode is the dictionary code reserved for the missing value: every
// CodedColumn maps NA to code 0, so kernels (and callers building filters)
// can test missingness with a single integer compare.
const NACode uint32 = 0

// CodedColumn is the dictionary-encoded view of a column: one uint32 code
// per row plus the reverse table mapping codes back to values. Values()[0]
// is always NA. Every header reads the same rows, codes and values for
// its whole life, so concurrent readers may share one freely; ExtendCoded
// is the one operation with a concurrency rule (see there).
type CodedColumn struct {
	codes  []uint32
	values []value.Value
	idx    *dictIndex
}

// NewCodedColumn wraps a code vector and its dictionary without copying,
// taking ownership of both. Each is capped at its length, so the first
// ExtendCoded reallocates instead of writing into capacity some other
// slice may share.
func NewCodedColumn(codes []uint32, values []value.Value) *CodedColumn {
	return &CodedColumn{
		codes:  codes[:len(codes):len(codes)],
		values: values[:len(values):len(values)],
		idx:    &dictIndex{rows: len(codes)},
	}
}

// Len reports the number of rows.
func (c *CodedColumn) Len() int { return len(c.codes) }

// Card reports the dictionary cardinality, including the reserved NA
// entry.
func (c *CodedColumn) Card() int { return len(c.values) }

// Value materialises row i. It implements the Measure accessor, so a
// coded column can be aggregated over directly (the cube's distinct
// patient counts take this path).
func (c *CodedColumn) Value(i int) value.Value { return c.values[c.codes[i]] }

// Codes returns the code vector, one code per row, without copying.
// Callers must not mutate it; it is capped at its length, so an append by
// the caller cannot reach rows a newer header added.
func (c *CodedColumn) Codes() []uint32 { return c.codes[:len(c.codes):len(c.codes)] }

// Values returns the dictionary (code -> value). Callers must not mutate
// it; it is capped at its length, so an append by the caller cannot reach
// entries a newer header added.
func (c *CodedColumn) Values() []value.Value { return c.values[:len(c.values):len(c.values)] }

// dictIndex is the value -> code index of a dictionary. A built column
// keeps none (its builder's is dropped, sparing every column that is
// never extended the map); ExtendCoded fills it on a column's first
// extend and hands it to every header extended after that, so later
// extends intern without rebuilding it. All headers of one build share
// it, and it describes the newest: rows is that header's length, which is
// how ExtendCoded tells the newest header — the only one whose spare
// capacity is free to append into — from an older one.
type dictIndex struct {
	index   map[value.Value]uint32
	nanCode uint32 // float NaN never equals itself, so it needs a pinned code
	rows    int
}

// fill indexes values, restoring the NaN pin.
func (ix *dictIndex) fill(values []value.Value) {
	ix.index = make(map[value.Value]uint32, len(values))
	for code, v := range values {
		if isNaN(v) {
			ix.nanCode = uint32(code)
			continue
		}
		ix.index[v] = uint32(code)
	}
}

func isNaN(v value.Value) bool { return v.Kind() == value.FloatKind && math.IsNaN(v.Float()) }

// dictBuilder interns values into a code vector under construction.
type dictBuilder struct {
	codes  []uint32
	values []value.Value
	*dictIndex
}

func newDictBuilder(rows int) *dictBuilder {
	return &dictBuilder{
		codes:     make([]uint32, 0, rows),
		values:    []value.Value{value.NA()},
		dictIndex: &dictIndex{index: map[value.Value]uint32{value.NA(): NACode}},
	}
}

// intern returns the code for v, extending the dictionary when v is new.
// Float NaN is folded onto one code (matching the string-keyed legacy
// grouping, where every NaN rendered as "NaN" and grouped together).
func (b *dictBuilder) intern(v value.Value) uint32 {
	if isNaN(v) {
		if b.nanCode == 0 {
			b.nanCode = uint32(len(b.values))
			b.values = append(b.values, v)
		}
		return b.nanCode
	}
	if code, ok := b.index[v]; ok {
		return code
	}
	code := uint32(len(b.values))
	b.values = append(b.values, v)
	b.index[v] = code
	return code
}

func (b *dictBuilder) append(v value.Value) {
	b.codes = append(b.codes, b.intern(v))
}

func (b *dictBuilder) finish() *CodedColumn {
	return NewCodedColumn(b.codes, b.values)
}

// EncodeFunc dictionary-encodes n rows produced by at(i). Storage columns
// encode their typed payloads through it, and the cube engine its
// attribute columns straight from fact keys, neither materialising a
// []value.Value first.
func EncodeFunc(n int, at func(i int) value.Value) *CodedColumn {
	b := newDictBuilder(n)
	for i := 0; i < n; i++ {
		b.append(at(i))
	}
	return b.finish()
}

// ExtendCoded returns c with vals appended, in O(len(vals)) amortised:
// the appended codes go into the spare capacity of c's code vector and
// new values into its dictionary, interned through an index kept with
// the column. Existing codes never change, and every header handed out
// before — c included — still reads exactly its own rows and dictionary
// afterwards, because the extension lies past its length. An empty vals
// returns c itself.
//
// Extend the newest header of a chain; extending an older one is correct
// but copies it first, O(rows). Extends of one chain must not run
// concurrently with each other: they share its index and spare capacity.
// The cube calls it under the refresh maintainer's write lock, with
// queries quiesced.
func ExtendCoded(c *CodedColumn, vals []value.Value) *CodedColumn {
	if len(vals) == 0 {
		return c
	}
	if c.idx.rows != c.Len() {
		// A newer header owns the spare capacity past c; extend a copy.
		c = NewCodedColumn(append([]uint32(nil), c.codes...), c.values)
	}
	if c.idx.index == nil {
		c.idx.fill(c.values)
	}
	b := &dictBuilder{codes: c.codes, values: c.values, dictIndex: c.idx}
	for _, v := range vals {
		b.append(v)
	}
	c.idx.rows = len(b.codes)
	return &CodedColumn{codes: b.codes, values: b.values, idx: c.idx}
}

// EncodeTuple canonically encodes a tuple of values as a string map key:
// kind tag, ':', the value's display form, NUL. This is the one shared
// implementation of the tuple encoding previously duplicated as
// storage.groupKey and cube.encodeTuple; unlike those it avoids
// fmt.Sprintf on the hot path. It remains the keying scheme of the legacy
// scalar group-by and of cell-set assembly, where tuples of variable
// width need a comparable encoding.
func EncodeTuple(vals []value.Value) string {
	var sb strings.Builder
	for _, v := range vals {
		sb.WriteByte('0' + byte(v.Kind()))
		sb.WriteByte(':')
		sb.WriteString(v.String())
		sb.WriteByte(0)
	}
	return sb.String()
}

// CompareTuples orders two equal-width tuples lexicographically by
// value.Compare — the deterministic group order every kernel output uses.
func CompareTuples(a, b []value.Value) int {
	for i := range a {
		if c := a[i].Compare(b[i]); c != 0 {
			return c
		}
	}
	return 0
}
