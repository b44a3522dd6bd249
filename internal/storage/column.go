package storage

import (
	"fmt"
	"maps"
	"slices"
	"sync"
	"sync/atomic"

	"github.com/ddgms/ddgms/internal/exec"
	"github.com/ddgms/ddgms/internal/value"
)

// Column is an append-only typed column with a null bitmap. Implementations
// store payloads in dense typed slices so scans and aggregations touch
// contiguous memory.
type Column interface {
	// Kind reports the value kind stored by the column.
	Kind() value.Kind
	// Len reports the number of rows.
	Len() int
	// Value materialises row i as a Value. NA rows return value.NA().
	Value(i int) value.Value
	// Append adds a value. NA is always accepted; otherwise the value's
	// kind must match the column kind.
	Append(v value.Value) error
	// IsNA reports whether row i is missing.
	IsNA(i int) bool
	// Set replaces row i. NA is always accepted; otherwise kinds must
	// match.
	Set(i int, v value.Value) error
	// Dict returns the dictionary-encoded view of the column: one code per
	// row plus the code -> value reverse table, with NA pinned to code 0. The view
	// is built lazily, cached, and invalidated by Append/Set; the
	// returned snapshot is immutable, so concurrent readers may hold it
	// across later mutations.
	Dict() *exec.CodedColumn

	// Clone returns an independent copy with no cached dictionary.
	Clone() Column
	// Grow makes room for n more rows without reallocating.
	Grow(n int)
}

// dictCache memoises a column's coded view. The mutex makes concurrent
// Dict calls safe (two readers racing to build the cache), which the
// parallel execution kernel relies on. Mutation is documented as
// single-goroutine and never overlaps a Dict call, so invalidate reads
// the pointer without the mutex and, on the common path of a column
// being loaded with nothing cached, takes no lock at all.
type dictCache struct {
	mu   sync.Mutex
	dict atomic.Pointer[exec.CodedColumn]
}

// dictHit / dictMiss are resolved once; each lookup pays one atomic.
var dictHit, dictMiss = exec.DictLookupCounters("storage")

func (d *dictCache) get(build func() *exec.CodedColumn) *exec.CodedColumn {
	d.mu.Lock()
	defer d.mu.Unlock()
	dict := d.dict.Load()
	if dict == nil {
		dictMiss.Inc()
		dict = build()
		d.dict.Store(dict)
		metricColumnBytes.Add(float64(4 * dict.Len()))
	} else {
		dictHit.Inc()
	}
	return dict
}

func (d *dictCache) invalidate() {
	if d.dict.Load() == nil {
		return
	}
	d.mu.Lock()
	if dict := d.dict.Swap(nil); dict != nil {
		metricColumnBytes.Add(float64(-4 * dict.Len()))
	}
	d.mu.Unlock()
}

// NewColumn creates an empty column of the given kind. String-kinded
// columns are dictionary-encoded.
func NewColumn(k value.Kind) (Column, error) {
	switch k {
	case value.IntKind, value.BoolKind, value.TimeKind:
		return &intColumn{kind: k}, nil
	case value.FloatKind:
		return &floatColumn{}, nil
	case value.StringKind:
		return newStringColumn(), nil
	}
	return nil, fmt.Errorf("storage: cannot create column of kind %v", k)
}

// nullBitmap tracks validity per row, one bit per row.
type nullBitmap struct {
	words []uint64
	n     int
}

func (b *nullBitmap) appendValid(valid bool) {
	i := b.n
	b.n++
	if i>>6 >= len(b.words) {
		b.words = append(b.words, 0)
	}
	if valid {
		b.words[i>>6] |= 1 << (uint(i) & 63)
	}
}

func (b nullBitmap) clone() nullBitmap {
	return nullBitmap{words: slices.Clone(b.words), n: b.n}
}

func (b *nullBitmap) grow(n int) {
	b.words = slices.Grow(b.words, max(0, (b.n+n+63)/64-len(b.words)))
}

func (b *nullBitmap) valid(i int) bool {
	return b.words[i>>6]&(1<<(uint(i)&63)) != 0
}

func (b *nullBitmap) setValid(i int, valid bool) {
	if valid {
		b.words[i>>6] |= 1 << (uint(i) & 63)
	} else {
		b.words[i>>6] &^= 1 << (uint(i) & 63)
	}
}

// intColumn backs IntKind, BoolKind and TimeKind columns: all three store
// an int64 payload (bool as 0/1, time as unix nanoseconds).
type intColumn struct {
	kind  value.Kind
	data  []int64
	nulls nullBitmap
	dc    dictCache
}

func (c *intColumn) Kind() value.Kind { return c.kind }
func (c *intColumn) Len() int         { return len(c.data) }
func (c *intColumn) IsNA(i int) bool  { return !c.nulls.valid(i) }

func (c *intColumn) Value(i int) value.Value {
	if !c.nulls.valid(i) {
		return value.NA()
	}
	switch c.kind {
	case value.BoolKind:
		return value.Bool(c.data[i] != 0)
	case value.TimeKind:
		return timeFromNanos(c.data[i])
	}
	return value.Int(c.data[i])
}

func (c *intColumn) Append(v value.Value) error {
	c.dc.invalidate()
	if v.IsNA() {
		c.data = append(c.data, 0)
		c.nulls.appendValid(false)
		return nil
	}
	if v.Kind() != c.kind {
		return fmt.Errorf("storage: appending %v value to %v column", v.Kind(), c.kind)
	}
	c.data = append(c.data, rawInt(v))
	c.nulls.appendValid(true)
	return nil
}

func (c *intColumn) Grow(n int) {
	c.data = slices.Grow(c.data, n)
	c.nulls.grow(n)
}

func (c *intColumn) Clone() Column {
	return &intColumn{kind: c.kind, data: slices.Clone(c.data), nulls: c.nulls.clone()}
}

func (c *intColumn) Dict() *exec.CodedColumn {
	return c.dc.get(func() *exec.CodedColumn { return exec.EncodeFunc(c.Len(), c.Value) })
}

// FloatAt reads row i as a float without materialising a value.Value.
// Only meaningful when AllFloat reports true.
func (c *intColumn) FloatAt(i int) (float64, bool) {
	if !c.nulls.valid(i) {
		return 0, false
	}
	return float64(c.data[i]), true
}

// AllFloat reports whether the payload is float-coercible: ints and
// bools are (bool stores 0/1), times are not.
func (c *intColumn) AllFloat() bool { return c.kind != value.TimeKind }

func (c *intColumn) Set(i int, v value.Value) error {
	c.dc.invalidate()
	if v.IsNA() {
		c.data[i] = 0
		c.nulls.setValid(i, false)
		return nil
	}
	if v.Kind() != c.kind {
		return fmt.Errorf("storage: setting %v value in %v column", v.Kind(), c.kind)
	}
	c.data[i] = rawInt(v)
	c.nulls.setValid(i, true)
	return nil
}

func rawInt(v value.Value) int64 {
	switch v.Kind() {
	case value.BoolKind:
		if v.Bool() {
			return 1
		}
		return 0
	case value.TimeKind:
		return v.Time().UnixNano()
	}
	return v.Int()
}

func timeFromNanos(n int64) value.Value {
	return value.Time(timeUnix(0, n))
}

// floatColumn backs FloatKind columns.
type floatColumn struct {
	data  []float64
	nulls nullBitmap
	dc    dictCache
}

func (c *floatColumn) Kind() value.Kind { return value.FloatKind }
func (c *floatColumn) Len() int         { return len(c.data) }
func (c *floatColumn) IsNA(i int) bool  { return !c.nulls.valid(i) }

func (c *floatColumn) Value(i int) value.Value {
	if !c.nulls.valid(i) {
		return value.NA()
	}
	return value.Float(c.data[i])
}

func (c *floatColumn) Grow(n int) {
	c.data = slices.Grow(c.data, n)
	c.nulls.grow(n)
}

func (c *floatColumn) Clone() Column {
	return &floatColumn{data: slices.Clone(c.data), nulls: c.nulls.clone()}
}

func (c *floatColumn) Dict() *exec.CodedColumn {
	return c.dc.get(func() *exec.CodedColumn { return exec.EncodeFunc(c.Len(), c.Value) })
}

// FloatAt reads row i as a float without materialising a value.Value.
func (c *floatColumn) FloatAt(i int) (float64, bool) {
	if !c.nulls.valid(i) {
		return 0, false
	}
	return c.data[i], true
}

// AllFloat reports that every non-NA row is a float.
func (c *floatColumn) AllFloat() bool { return true }

func (c *floatColumn) Append(v value.Value) error {
	c.dc.invalidate()
	if v.IsNA() {
		c.data = append(c.data, 0)
		c.nulls.appendValid(false)
		return nil
	}
	if v.Kind() != value.FloatKind {
		return fmt.Errorf("storage: appending %v value to float column", v.Kind())
	}
	c.data = append(c.data, v.Float())
	c.nulls.appendValid(true)
	return nil
}

func (c *floatColumn) Set(i int, v value.Value) error {
	c.dc.invalidate()
	if v.IsNA() {
		c.data[i] = 0
		c.nulls.setValid(i, false)
		return nil
	}
	if v.Kind() != value.FloatKind {
		return fmt.Errorf("storage: setting %v value in float column", v.Kind())
	}
	c.data[i] = v.Float()
	c.nulls.setValid(i, true)
	return nil
}

// stringColumn backs StringKind columns with dictionary encoding: the
// payload slice holds dictionary codes, which keeps the column compact when
// the domain is small (the typical case for discretised clinical
// attributes).
type stringColumn struct {
	codes []uint32
	dict  []string
	byStr map[string]uint32
	nulls nullBitmap
	dc    dictCache
}

func newStringColumn() *stringColumn {
	return &stringColumn{byStr: make(map[string]uint32)}
}

func (c *stringColumn) Kind() value.Kind { return value.StringKind }
func (c *stringColumn) Len() int         { return len(c.codes) }
func (c *stringColumn) IsNA(i int) bool  { return !c.nulls.valid(i) }

func (c *stringColumn) Value(i int) value.Value {
	if !c.nulls.valid(i) {
		return value.NA()
	}
	return value.Str(c.dict[c.codes[i]])
}

func (c *stringColumn) Grow(n int) {
	c.codes = slices.Grow(c.codes, n)
	c.nulls.grow(n)
}

func (c *stringColumn) Clone() Column {
	return &stringColumn{
		codes: slices.Clone(c.codes),
		dict:  slices.Clone(c.dict),
		byStr: maps.Clone(c.byStr),
		nulls: c.nulls.clone(),
	}
}

func (c *stringColumn) code(s string) uint32 {
	if code, ok := c.byStr[s]; ok {
		return code
	}
	code := uint32(len(c.dict))
	c.dict = append(c.dict, s)
	c.byStr[s] = code
	return code
}

// Dict shifts the column's existing string dictionary by one to make
// room for the pinned NA code — no per-row hashing, unlike the generic
// encode path.
func (c *stringColumn) Dict() *exec.CodedColumn {
	return c.dc.get(func() *exec.CodedColumn {
		codes := make([]uint32, len(c.codes))
		values := make([]value.Value, len(c.dict)+1)
		values[exec.NACode] = value.NA()
		for code, s := range c.dict {
			values[code+1] = value.Str(s)
		}
		for i, code := range c.codes {
			if c.nulls.valid(i) {
				codes[i] = code + 1
			}
		}
		return exec.NewCodedColumn(codes, values)
	})
}

func (c *stringColumn) Append(v value.Value) error {
	c.dc.invalidate()
	if v.IsNA() {
		c.codes = append(c.codes, 0)
		c.nulls.appendValid(false)
		return nil
	}
	if v.Kind() != value.StringKind {
		return fmt.Errorf("storage: appending %v value to string column", v.Kind())
	}
	c.codes = append(c.codes, c.code(v.Str()))
	c.nulls.appendValid(true)
	return nil
}

func (c *stringColumn) Set(i int, v value.Value) error {
	c.dc.invalidate()
	if v.IsNA() {
		c.codes[i] = 0
		c.nulls.setValid(i, false)
		return nil
	}
	if v.Kind() != value.StringKind {
		return fmt.Errorf("storage: setting %v value in string column", v.Kind())
	}
	c.codes[i] = c.code(v.Str())
	c.nulls.setValid(i, true)
	return nil
}
