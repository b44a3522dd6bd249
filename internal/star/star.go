package star

import (
	"fmt"
	"sort"

	"github.com/ddgms/ddgms/internal/storage"
	"github.com/ddgms/ddgms/internal/value"
)

// Schema is a complete star schema: named dimensions around one fact
// table.
type Schema struct {
	Name     string
	dims     map[string]*Dimension
	fact     *FactTable
	feedback []feedbackDim // grafted dimensions, in graft order
}

// Dimension returns the named dimension.
func (s *Schema) Dimension(name string) (*Dimension, bool) {
	d, ok := s.dims[name]
	return d, ok
}

// Dimensions returns all dimensions sorted by name.
func (s *Schema) Dimensions() []*Dimension {
	names := make([]string, 0, len(s.dims))
	for n := range s.dims {
		names = append(names, n)
	}
	sort.Strings(names)
	out := make([]*Dimension, len(names))
	for i, n := range names {
		out[i] = s.dims[n]
	}
	return out
}

// Fact returns the fact table.
func (s *Schema) Fact() *FactTable { return s.fact }

// Describe renders the star schema as text: the fact table with its live
// (unretired) fact count and its measures, surrounded by each dimension
// and its attributes — the textual equivalent of the paper's Fig 1 / Fig 3
// diagrams.
func (s *Schema) Describe() string {
	out := fmt.Sprintf("Fact: %s (%d rows)\n", s.Name, s.fact.LiveLen())
	out += "  measures:"
	for _, f := range s.fact.Measures().Fields() {
		out += " " + f.Name
	}
	out += "\n"
	for _, d := range s.Dimensions() {
		out += fmt.Sprintf("Dimension: %s (%d members)\n", d.Name(), d.Len())
		out += "  attributes:"
		for _, f := range d.Schema().Fields() {
			out += " " + f.Name
		}
		out += "\n"
		for _, h := range d.Hierarchies() {
			out += fmt.Sprintf("  hierarchy %s:", h.Name)
			for _, l := range h.Levels {
				out += " " + l
			}
			out += "\n"
		}
	}
	return out
}

// DimSpec maps one dimension's attributes onto columns of the flat source
// table. Attribute i of the dimension is populated from source column
// Columns[i].
type DimSpec struct {
	Name        string
	Attrs       []storage.Field
	Columns     []string
	Hierarchies []Hierarchy
}

// Builder assembles a star schema declaratively and then loads it from a
// flat table.
type Builder struct {
	name     string
	dims     []DimSpec
	measures []storage.Field
	srcCols  []string
	err      error
}

// NewBuilder starts a star schema with the given fact-table name.
func NewBuilder(name string) *Builder {
	return &Builder{name: name}
}

// Dimension declares a dimension whose attributes come from the given
// source columns (attrs[i] reads srcColumns[i]).
func (b *Builder) Dimension(name string, attrs []storage.Field, srcColumns []string, hierarchies ...Hierarchy) *Builder {
	if b.err != nil {
		return b
	}
	if len(attrs) != len(srcColumns) {
		b.err = fmt.Errorf("star: dimension %q: %d attributes but %d source columns",
			name, len(attrs), len(srcColumns))
		return b
	}
	b.dims = append(b.dims, DimSpec{Name: name, Attrs: attrs, Columns: srcColumns, Hierarchies: hierarchies})
	return b
}

// Measure declares a numeric measure read from the named source column.
func (b *Builder) Measure(field storage.Field, srcColumn string) *Builder {
	if b.err != nil {
		return b
	}
	b.measures = append(b.measures, field)
	b.srcCols = append(b.srcCols, srcColumn)
	return b
}

// Build constructs the star schema and loads every row of the flat table
// as one fact: dimension members are interned (deduplicated) and facts
// point at them via surrogate keys. A fact whose dimension attributes are
// all NA gets NoKey for that dimension.
func (b *Builder) Build(flat *storage.Table) (*Schema, error) {
	if b.err != nil {
		return nil, b.err
	}
	if len(b.dims) == 0 {
		return nil, fmt.Errorf("star: schema %q has no dimensions", b.name)
	}
	s := &Schema{Name: b.name, dims: make(map[string]*Dimension, len(b.dims))}
	dimNames := make([]string, len(b.dims))
	for i, spec := range b.dims {
		d, err := NewDimension(spec.Name, spec.Attrs, spec.Hierarchies...)
		if err != nil {
			return nil, err
		}
		if _, dup := s.dims[spec.Name]; dup {
			return nil, fmt.Errorf("star: duplicate dimension %q", spec.Name)
		}
		s.dims[spec.Name] = d
		dimNames[i] = spec.Name
	}
	fact, err := NewFactTable(dimNames, b.measures)
	if err != nil {
		return nil, err
	}
	s.fact = fact
	if err := b.load(s, flat); err != nil {
		return nil, err
	}
	return s, nil
}

// Append loads every row of a delta flat table as additional facts into a
// schema previously produced by Build from the same spec. New dimension
// members are interned on the fly (AddMember deduplicates, so existing
// members keep their keys); feedback dimensions attached after the
// initial build classify the appended facts with their own classifiers,
// so an appended fact is tagged as a rebuild would tag it.
func (b *Builder) Append(s *Schema, flat *storage.Table) error {
	if b.err != nil {
		return b.err
	}
	from := s.fact.Len()
	if err := b.load(s, flat); err != nil {
		return err
	}
	for _, fd := range s.feedback {
		if err := fd.tag(s, s.fact.keys[s.fact.dimIdx[fd.dim.Name()]], from); err != nil {
			return err
		}
	}
	return nil
}

// sourceColumn returns the flat table's column that feeds an attribute or
// measure of the given kind.
func sourceColumn(flat *storage.Table, col string, kind value.Kind) (storage.Column, error) {
	j, ok := flat.Schema().Lookup(col)
	if !ok {
		return nil, fmt.Errorf("source column %q not in flat table", col)
	}
	if got := flat.Schema().Field(j).Kind; got != kind {
		return nil, fmt.Errorf("source column %q has kind %v, want %v", col, got, kind)
	}
	return flat.ColumnAt(j), nil
}

// load appends every row of flat as one fact of s. It resolves and checks
// the source columns once, then reads each cell by column position.
func (b *Builder) load(s *Schema, flat *storage.Table) error {
	type dimSource struct {
		dim  *Dimension
		slot int // position in the fact table's key tuple
		cols []storage.Column
		buf  []value.Value
	}
	dims := make([]dimSource, len(b.dims))
	for i, spec := range b.dims {
		d, ok := s.dims[spec.Name]
		if !ok {
			return fmt.Errorf("star: schema has no dimension %q to load into", spec.Name)
		}
		ds := dimSource{dim: d, slot: s.fact.dimIdx[spec.Name],
			cols: make([]storage.Column, len(spec.Columns)), buf: make([]value.Value, len(spec.Columns))}
		for a, c := range spec.Columns {
			col, err := sourceColumn(flat, c, spec.Attrs[a].Kind)
			if err != nil {
				return fmt.Errorf("star: dimension %q attribute %q: %w", spec.Name, spec.Attrs[a].Name, err)
			}
			ds.cols[a] = col
		}
		dims[i] = ds
	}
	meas := make([]storage.Column, len(b.srcCols))
	for m, c := range b.srcCols {
		col, err := sourceColumn(flat, c, b.measures[m].Kind)
		if err != nil {
			return fmt.Errorf("star: measure %q: %w", b.measures[m].Name, err)
		}
		meas[m] = col
	}

	// Fact dimensions the spec does not cover keep NoKey (Append then
	// classifies the feedback ones).
	keys := make([]Key, len(s.fact.dimNames))
	for k := range keys {
		keys[k] = NoKey
	}
	measBuf := make([]value.Value, len(meas))
	for i := 0; i < flat.Len(); i++ {
		for _, ds := range dims {
			allNA := true
			for a, col := range ds.cols {
				ds.buf[a] = col.Value(i)
				if !ds.buf[a].IsNA() {
					allNA = false
				}
			}
			if allNA {
				keys[ds.slot] = NoKey
				continue
			}
			k, err := ds.dim.AddMember(ds.buf)
			if err != nil {
				return fmt.Errorf("star: loading row %d: %w", i, err)
			}
			keys[ds.slot] = k
		}
		for m, col := range meas {
			measBuf[m] = col.Value(i)
		}
		if err := s.fact.appendKeys(keys, measBuf); err != nil {
			return fmt.Errorf("star: loading row %d: %w", i, err)
		}
	}
	return nil
}
