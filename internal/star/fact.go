package star

import (
	"fmt"

	"github.com/ddgms/ddgms/internal/storage"
	"github.com/ddgms/ddgms/internal/value"
)

// FactTable holds one row per recorded clinical event (an attendance in
// the DiScRi trial): a surrogate key into every dimension plus the numeric
// measures. Keys are stored columnar for fast cube scans.
type FactTable struct {
	dimNames []string
	dimIdx   map[string]int
	keys     [][]Key
	measures *storage.Table
	n        int
	// Tombstones for incremental maintenance: columnar storage cannot
	// cheaply delete mid-table, so a superseded fact row (its OLTP source
	// was updated or deleted) is retired in place and every query path
	// masks it out. The live-mask is a word bitmap (bit set = retired) so
	// query filters mask 64 rows per AND-NOT instead of one per branch;
	// it is allocated lazily on the first retirement.
	dead  []uint64
	deadN int
}

// NewFactTable creates an empty fact table over the named dimensions and
// measure fields.
func NewFactTable(dimNames []string, measureFields []storage.Field) (*FactTable, error) {
	if len(dimNames) == 0 {
		return nil, fmt.Errorf("star: fact table needs at least one dimension")
	}
	idx := make(map[string]int, len(dimNames))
	for i, n := range dimNames {
		if _, dup := idx[n]; dup {
			return nil, fmt.Errorf("star: duplicate dimension %q in fact table", n)
		}
		idx[n] = i
	}
	for _, f := range measureFields {
		if f.Kind != value.IntKind && f.Kind != value.FloatKind && f.Kind != value.BoolKind {
			return nil, fmt.Errorf("star: measure %q must be numeric, got %v", f.Name, f.Kind)
		}
	}
	schema, err := storage.NewSchema(measureFields...)
	if err != nil {
		return nil, err
	}
	mt, err := storage.NewTable(schema)
	if err != nil {
		return nil, err
	}
	return &FactTable{
		dimNames: append([]string(nil), dimNames...),
		dimIdx:   idx,
		keys:     make([][]Key, len(dimNames)),
		measures: mt,
	}, nil
}

// Measures returns the measure schema.
func (f *FactTable) Measures() *storage.Schema { return f.measures.Schema() }

// Len reports the number of fact rows.
func (f *FactTable) Len() int { return f.n }

// Append adds one fact: a key per dimension (NoKey marks missing dimension
// context) and one value per measure.
func (f *FactTable) Append(keys map[string]Key, measures []value.Value) error {
	if len(keys) != len(f.dimNames) {
		return fmt.Errorf("star: fact has %d keys, table has %d dimensions", len(keys), len(f.dimNames))
	}
	tuple := make([]Key, len(f.dimNames))
	for name, k := range keys {
		i, ok := f.dimIdx[name]
		if !ok {
			return fmt.Errorf("star: fact references unknown dimension %q", name)
		}
		tuple[i] = k
	}
	return f.appendKeys(tuple, measures)
}

// appendKeys is Append with the keys in dimension declaration order.
func (f *FactTable) appendKeys(keys []Key, measures []value.Value) error {
	if err := f.measures.AppendRow(measures); err != nil {
		return fmt.Errorf("star: fact measures: %w", err)
	}
	for i, k := range keys {
		f.keys[i] = append(f.keys[i], k)
	}
	if f.dead != nil && f.n>>6 >= len(f.dead) {
		f.dead = append(f.dead, 0)
	}
	f.n++
	return nil
}

// Retire tombstones fact row i: it stays physically present (keys and
// measures keep their ordinals) but every aggregate must skip it. Retiring an already-retired row is a no-op, which makes
// at-least-once delta application idempotent.
func (f *FactTable) Retire(i int) error {
	if i < 0 || i >= f.n {
		return fmt.Errorf("star: fact row %d out of range", i)
	}
	if f.dead == nil {
		f.dead = make([]uint64, (f.n+63)/64)
	}
	if f.dead[i>>6]&(1<<(uint(i)&63)) == 0 {
		f.dead[i>>6] |= 1 << (uint(i) & 63)
		f.deadN++
	}
	return nil
}

// Alive reports whether fact row i has not been retired.
func (f *FactTable) Alive(i int) bool {
	return f.dead == nil || i < 0 || i>>6 >= len(f.dead) ||
		f.dead[i>>6]&(1<<(uint(i)&63)) == 0
}

// DeadWords exposes the tombstone bitmap words (bit set = retired, 64
// rows per word), nil when no row has ever been retired. Query layers
// use it to mask out retired facts word-wise; callers must not mutate
// it.
func (f *FactTable) DeadWords() []uint64 { return f.dead }

// LiveLen reports the number of non-retired fact rows.
func (f *FactTable) LiveLen() int { return f.n - f.deadN }

// RetiredCount reports how many fact rows are tombstoned. Zero means no
// masking is needed anywhere.
func (f *FactTable) RetiredCount() int { return f.deadN }

// Key returns the surrogate key of fact row i in the named dimension.
func (f *FactTable) Key(i int, dim string) (Key, error) {
	j, ok := f.dimIdx[dim]
	if !ok {
		return NoKey, fmt.Errorf("star: unknown dimension %q", dim)
	}
	if i < 0 || i >= f.n {
		return NoKey, fmt.Errorf("star: fact row %d out of range", i)
	}
	return f.keys[j][i], nil
}

// KeyColumn returns the whole key column for a dimension; cube
// construction scans these directly.
func (f *FactTable) KeyColumn(dim string) ([]Key, error) {
	j, ok := f.dimIdx[dim]
	if !ok {
		return nil, fmt.Errorf("star: unknown dimension %q", dim)
	}
	return f.keys[j], nil
}

// Measure returns measure column values for direct scanning.
func (f *FactTable) Measure(name string) (storage.Column, error) {
	return f.measures.Column(name)
}
